#pragma once
// Shared plumbing of the benchmark driver: host clocks, process counters,
// the metric record every workload fills, and the correctness tally.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

namespace perfbench {

inline double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed by every thread of this process so far.
double process_cpu_s();

/// Peak resident set of this process (VmHWM) in MiB.
double peak_rss_mb();

/// Counts checked outputs. A failed check prints its first few diagnostics
/// to stderr; the run keeps going so the tally stays whole.
class Checks {
 public:
  /// `index` names the rank the check is about; -1 for none.
  void expect(bool ok, const char* what, long index = -1) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failed_ > 20) return;
    if (index >= 0)
      std::fprintf(stderr, "CHECK FAILED: %s [%ld]\n", what, index);
    else
      std::fprintf(stderr, "CHECK FAILED: %s\n", what);
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Per-layer values of one repetition, keyed by the names BENCHMARK.json
/// lists. Layers a workload does not run are left out and read 0.
using LayerValues = std::map<std::string, double>;

/// What one repetition of a workload measured.
struct RepOut {
  double setup_s = 0;     // host time before the first event
  double wall_s = 0;      // host time of engine.run()
  double makespan_s = 0;  // simulated completion time
  /// Deterministic per-layer counts: a function of (workload, seed) only,
  /// so they must repeat exactly from run to run.
  LayerValues counts;
  /// Per-layer host-time measurements (seconds, rates, CPU ratios).
  LayerValues host;
};

/// One workload: reference data is prepared in the constructor (outside any
/// timed region); rep() builds, runs and checks one fresh simulation.
class Workload {
 public:
  virtual ~Workload() = default;
  /// `traced` installs the per-layer probes (hook timers); untraced
  /// repetitions run the program exactly as a user would.
  virtual RepOut rep(bool traced, Checks& checks) = 0;
};

std::unique_ptr<Workload> make_engine_workload(uint64_t seed, Checks& checks);
/// `engine_threads` > 0 overrides mtbf-16k's 2 executor threads (simulated
/// results must not change with it; DESIGN §12).
std::unique_ptr<Workload> make_mtbf_workload(uint64_t seed, int engine_threads,
                                             Checks& checks);
std::unique_ptr<Workload> make_ckpt_workload(uint64_t seed, Checks& checks);

}  // namespace perfbench
