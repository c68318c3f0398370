#include "timed_hooks.hpp"

#include <chrono>
#include <mutex>
#include <vector>

namespace perfbench {

namespace sm = spbc::mpi;

namespace {

struct Accumulator {
  double seconds = 0;
  uint64_t calls = 0;
  int depth = 0;  // nesting of timed hooks on this thread
};

// Owns every thread's accumulator, so totals outlive the executor's worker
// threads (they exit at the end of each engine.run()).
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Accumulator>> all;
};

Registry& registry() {
  static Registry r;
  return r;
}

Accumulator& local_accumulator() {
  thread_local Accumulator* acc = nullptr;
  if (acc == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.all.push_back(std::make_unique<Accumulator>());
    acc = r.all.back().get();
  }
  return *acc;
}

/// Times one hook call unless it nests inside another timed hook.
class Span {
 public:
  Span() : acc_(local_accumulator()) {
    ++acc_.calls;
    if (acc_.depth++ == 0) t0_ = std::chrono::steady_clock::now();
  }
  ~Span() {
    if (--acc_.depth == 0)
      acc_.seconds += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0_)
                          .count();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Accumulator& acc_;
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace

void reset_hook_totals() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& a : r.all) {
    a->seconds = 0;
    a->calls = 0;
  }
}

HookTotals hook_totals() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  HookTotals t;
  for (const auto& a : r.all) {
    t.seconds += a->seconds;
    t.calls += a->calls;
  }
  return t;
}

void TimedHooks::attach(sm::Machine& machine) { inner_->attach(machine); }

void TimedHooks::on_cluster_map(int nclusters) {
  inner_->on_cluster_map(nclusters);
}

void TimedHooks::stamp_envelope(sm::Rank& sender, sm::Envelope& env) {
  Span s;
  inner_->stamp_envelope(sender, env);
}

spbc::sim::Time TimedHooks::on_send(sm::Rank& sender, const sm::Envelope& env,
                                    const sm::Payload& payload) {
  Span s;
  return inner_->on_send(sender, env, payload);
}

bool TimedHooks::should_transmit(sm::Rank& sender, const sm::Envelope& env) {
  Span s;
  return inner_->should_transmit(sender, env);
}

void TimedHooks::on_delivered(sm::Rank& receiver, const sm::Envelope& env,
                              const sm::Payload& payload) {
  Span s;
  inner_->on_delivered(receiver, env, payload);
}

void TimedHooks::on_matched(sm::Rank& receiver, const sm::Envelope& env) {
  Span s;
  inner_->on_matched(receiver, env);
}

bool TimedHooks::pattern_matching_enabled() const {
  return inner_->pattern_matching_enabled();
}

bool TimedHooks::maybe_checkpoint(sm::Rank& rank) {
  ++local_accumulator().calls;  // parks when storage has a cost: not timed
  return inner_->maybe_checkpoint(rank);
}

void TimedHooks::on_failure_injected(int victim_rank, sm::FailureKind kind) {
  Span s;
  inner_->on_failure_injected(victim_rank, kind);
}

void TimedHooks::on_failure(int victim_rank) {
  Span s;
  inner_->on_failure(victim_rank);
}

void TimedHooks::on_rank_killed(int rank) {
  Span s;
  inner_->on_rank_killed(rank);
}

void TimedHooks::on_control(sm::Rank& receiver, const sm::ControlMsg& msg) {
  Span s;
  inner_->on_control(receiver, msg);
}

void TimedHooks::on_rank_start(sm::Rank& rank, bool restarted) {
  Span s;
  inner_->on_rank_start(rank, restarted);
}

}  // namespace perfbench
