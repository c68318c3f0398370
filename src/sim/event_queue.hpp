#pragma once
// Deterministic event queue: a binary min-heap ordered by (time, shard, seq).
//
// The key is the global tie-break rule for the sharded engine: `shard` is the
// *logical* (key) shard that scheduled the event and `seq` is that shard's
// own monotone counter. Because the key never mentions which physical queue
// or thread executes the event, merging any number of per-shard queues by
// smallest key reproduces the exact same global order for every shard count —
// the property the channel-determinism checker and every regression test
// depend on.
//
// Every key the engine stamps is unique (no two events share an origin
// shard and seq), so the keys are totally ordered and *any* correct min-heap
// pops the same sequence: pop order — and with it layout bit-identity — holds
// by construction, independent of how the heap breaks internal ties. Records
// are stored inline in the heap: no ids, no removal other than pop, and no
// indirection.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace spbc::sim {

/// Global event ordering key. Lexicographic (time, shard, seq).
struct EventKey {
  Time t = kTimeZero;
  uint32_t shard = 0;  // logical (key) shard of the scheduling context
  uint64_t seq = 0;    // that shard's monotone sequence number

  bool operator<(const EventKey& o) const {
    if (t != o.t) return t < o.t;
    if (shard != o.shard) return shard < o.shard;
    return seq < o.seq;
  }
  bool operator>(const EventKey& o) const { return o < *this; }
};

class EventQueue {
 public:
  using EventFn = std::function<void()>;

  struct Event {
    EventKey key;
    uint32_t owner;  // key shard whose state fn mutates; not part of order
    EventFn fn;
  };

  /// Inserts fn under `key`. Keys must be unique within the queue.
  void push(const EventKey& key, uint32_t owner, EventFn fn);

  /// Key of the earliest event; only valid when !empty().
  const EventKey& next_key() const;

  /// Removes and returns the earliest event; only valid when !empty().
  Event pop();

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

 private:
  std::vector<Event> heap_;  // min-heap on key
};

}  // namespace spbc::sim
