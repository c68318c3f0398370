#pragma once
// Forwarding ProtocolHooks wrapper that times the SPBC protocol from outside.
//
// Only hooks that never park the calling fiber are timed: maybe_checkpoint()
// parks in engine().wait(cost) whenever storage has a cost, so a wall clock
// around it would also count other ranks' work. It is counted, not timed.
// Hooks can nest (on_failure kills ranks, which calls on_rank_killed); only
// the outermost call on a thread is timed so no interval counts twice.
// Time is summed in per-thread accumulators because the threaded executor
// runs hooks on several worker threads at once.

#include <cstdint>
#include <memory>

#include "core/spbc.hpp"
#include "mpi/protocol_hooks.hpp"

namespace perfbench {

struct HookTotals {
  double seconds = 0;
  uint64_t calls = 0;
};

/// Zeroes every thread's accumulator. Call only while no simulation runs.
void reset_hook_totals();
/// Sums every thread's accumulator. Call only while no simulation runs.
HookTotals hook_totals();

class TimedHooks final : public spbc::mpi::ProtocolHooks {
 public:
  explicit TimedHooks(spbc::core::SpbcConfig cfg)
      : inner_(std::make_unique<spbc::core::SpbcProtocol>(std::move(cfg))) {}

  spbc::core::SpbcProtocol& inner() { return *inner_; }

  void attach(spbc::mpi::Machine& machine) override;
  void on_cluster_map(int nclusters) override;
  void stamp_envelope(spbc::mpi::Rank& sender,
                      spbc::mpi::Envelope& env) override;
  spbc::sim::Time on_send(spbc::mpi::Rank& sender,
                          const spbc::mpi::Envelope& env,
                          const spbc::mpi::Payload& payload) override;
  bool should_transmit(spbc::mpi::Rank& sender,
                       const spbc::mpi::Envelope& env) override;
  void on_delivered(spbc::mpi::Rank& receiver, const spbc::mpi::Envelope& env,
                    const spbc::mpi::Payload& payload) override;
  void on_matched(spbc::mpi::Rank& receiver,
                  const spbc::mpi::Envelope& env) override;
  bool pattern_matching_enabled() const override;
  bool maybe_checkpoint(spbc::mpi::Rank& rank) override;
  void on_failure_injected(int victim_rank,
                           spbc::mpi::FailureKind kind) override;
  void on_failure(int victim_rank) override;
  void on_rank_killed(int rank) override;
  void on_control(spbc::mpi::Rank& receiver,
                  const spbc::mpi::ControlMsg& msg) override;
  void on_rank_start(spbc::mpi::Rank& rank, bool restarted) override;

 private:
  std::unique_ptr<spbc::core::SpbcProtocol> inner_;
};

}  // namespace perfbench
