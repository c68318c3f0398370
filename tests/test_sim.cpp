// Unit tests: discrete-event engine, fibers, event queue, topology.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/topology.hpp"

namespace spbc::sim {
namespace {

TEST(EventQueue, OrdersByTimeThenInsertion) {
  EventQueue q;
  std::vector<int> order;
  q.push(EventKey{2.0, 0, 0}, 0, [&] { order.push_back(3); });
  q.push(EventKey{1.0, 0, 1}, 0, [&] { order.push_back(1); });
  q.push(EventKey{1.0, 0, 2}, 0, [&] { order.push_back(2); });  // same time
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Interleaved pushes and pops of unique keys with heavily tied times and
// shards must pop in exactly the order std::sort gives the pending keys.
TEST(EventQueue, RandomizedPopsMatchSortedKeys) {
  auto same = [](const EventKey& a, const EventKey& b) {
    return !(a < b) && !(b < a);
  };
  std::mt19937_64 rng(12345);
  for (int round = 0; round < 20; ++round) {
    EventQueue q;
    std::vector<uint64_t> next_seq(4, 0);
    std::vector<EventKey> pending;  // pushed, not yet popped
    Time floor = 0.0;               // keys never go behind the last pop
    for (int step = 0; step < 2000; ++step) {
      if (q.empty() || rng() % 3 != 0) {
        const uint32_t shard = static_cast<uint32_t>(rng() % 4);
        const EventKey k{floor + static_cast<Time>(rng() % 4), shard,
                         next_seq[shard]++};
        q.push(k, shard, [] {});
        pending.push_back(k);
        ASSERT_EQ(q.size(), pending.size());
        continue;
      }
      std::sort(pending.begin(), pending.end());
      const EventKey want = pending.front();
      pending.erase(pending.begin());
      ASSERT_TRUE(same(q.next_key(), want));
      const EventQueue::Event ev = q.pop();
      ASSERT_TRUE(same(ev.key, want)) << "round " << round << " step " << step;
      ASSERT_EQ(ev.owner, want.shard);
      floor = want.t;
    }
  }
}

TEST(Engine, TimeAdvancesMonotonically) {
  Engine e;
  std::vector<Time> stamps;
  e.at(0.5, [&] { stamps.push_back(e.now()); });
  e.at(0.25, [&] { stamps.push_back(e.now()); });
  e.at(1.0, [&] { stamps.push_back(e.now()); });
  e.run();
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_DOUBLE_EQ(stamps[0], 0.25);
  EXPECT_DOUBLE_EQ(stamps[1], 0.5);
  EXPECT_DOUBLE_EQ(stamps[2], 1.0);
}

TEST(Engine, FiberWaitAdvancesVirtualTime) {
  Engine e;
  Time end = -1;
  e.spawn([&] {
    e.wait(1.5);
    e.wait(0.5);
    end = e.now();
  });
  e.run();
  EXPECT_DOUBLE_EQ(end, 2.0);
}

TEST(Engine, TwoFibersInterleaveDeterministically) {
  Engine e;
  std::vector<int> order;
  e.spawn([&] {
    order.push_back(1);
    e.wait(1.0);
    order.push_back(3);
  });
  e.spawn([&] {
    order.push_back(2);
    e.wait(0.5);
    order.push_back(4);  // wakes at 0.5, before fiber 1's 1.0
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
}

TEST(Engine, ParkUnparkRoundTrip) {
  Engine e;
  bool done = false;
  Engine::TaskId id = e.spawn([&] {
    e.park();
    done = true;
  });
  e.at(3.0, [&] { e.unpark(id); });
  e.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, KillUnwindsStackWithDestructors) {
  Engine e;
  bool destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  Engine::TaskId id = e.spawn([&] {
    Sentinel s{&destroyed};
    e.park();  // killed here
    FAIL() << "should not resume";
  });
  e.at(1.0, [&] { e.kill(id); });
  e.run();
  EXPECT_TRUE(destroyed);
  EXPECT_TRUE(e.task_finished(id));
}

TEST(Engine, DeadlockDetectedGracefully) {
  Engine e;
  e.set_abort_on_deadlock(false);
  e.spawn([&] { e.park(); });  // nobody will wake it
  e.run();
  EXPECT_TRUE(e.deadlocked());
  EXPECT_EQ(e.live_task_count(), 1u);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int ran = 0;
  e.at(1.0, [&] { ++ran; });
  e.at(5.0, [&] { ++ran; });
  e.run_until(2.0);
  EXPECT_EQ(ran, 1);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Engine, SpawnFromFiber) {
  Engine e;
  int child_ran = 0;
  e.spawn([&] {
    e.spawn([&] { ++child_ran; });
    e.wait(1.0);
  });
  e.run();
  EXPECT_EQ(child_ran, 1);
}

TEST(Engine, ManyFibersScale) {
  Engine e(64 * 1024);
  int finished = 0;
  for (int i = 0; i < 512; ++i) {
    e.spawn([&e, &finished, i] {
      e.wait(0.001 * (i % 7));
      ++finished;
    });
  }
  e.run();
  EXPECT_EQ(finished, 512);
}

TEST(Topology, NodeMapping) {
  Topology t(64, 8);
  EXPECT_EQ(t.nranks(), 512);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(7), 0);
  EXPECT_EQ(t.node_of(8), 1);
  EXPECT_EQ(t.node_of(511), 63);
  EXPECT_TRUE(t.same_node(8, 15));
  EXPECT_FALSE(t.same_node(7, 8));
}

TEST(Topology, ForRanksFactory) {
  Topology t = Topology::for_ranks(32, 4);
  EXPECT_EQ(t.nodes(), 8);
  EXPECT_EQ(t.ranks_per_node(), 4);
}

}  // namespace
}  // namespace spbc::sim
