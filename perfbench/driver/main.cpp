// Benchmark driver: one repetition of one workload per process.
// perfbench/run.py builds this binary and calls it as
//
//   perfbench_driver --workload=NAME --seed=N --trace=0|1 [--engine-threads=N]
//
// --engine-threads applies to mtbf-16k only, to compare executor thread
// counts by hand.
//
// A repetition prepares its reference data, builds a fresh simulation
// (set-up), runs it (wall) and checks its outputs. A fresh process per
// repetition means every timing includes the first-touch memory cost a user
// pays when running one simulation. --trace=1 installs the per-layer probes.
//
// The last line of standard output is one JSON object with the repetition's
// raw measurements: set-up, wall and simulated time, VmHWM, the checks
// attempted and failed, and the per-layer values keyed by metric name.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>

#include "common.hpp"
#include "util/cli.hpp"

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%" SCNu64, &kb);
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  spbc::util::Cli cli(argc, argv);
  const std::string name = cli.get_string("workload", "");
  const uint64_t seed = static_cast<uint64_t>(cli.get_int("seed", 1));
  const bool traced = cli.get_int("trace", 0) != 0;
  const int engine_threads = static_cast<int>(cli.get_int("engine-threads", 0));

  Checks checks;
  std::unique_ptr<Workload> wl;
  if (name == "engine-131k") {
    wl = make_engine_workload(seed, checks);
  } else if (name == "mtbf-16k") {
    wl = make_mtbf_workload(seed, engine_threads, checks);
  } else if (name == "ckpt-rs-512") {
    wl = make_ckpt_workload(seed, checks);
  } else {
    std::fprintf(stderr,
                 "unknown --workload=%s (engine-131k|mtbf-16k|ckpt-rs-512)\n",
                 name.c_str());
    return 2;
  }
  const RepOut r = wl->rep(traced, checks);

  std::string json = "{\"setup_s\": " + json_number(r.setup_s);
  json += ", \"wall_s\": " + json_number(r.wall_s);
  json += ", \"makespan_s\": " + json_number(r.makespan_s);
  json += ", \"peak_rss_mb\": " + json_number(peak_rss_mb());
  json += ", \"attempted\": " + std::to_string(checks.attempted());
  json += ", \"failed\": " + std::to_string(checks.failed());
  for (const auto& [key, values] : {std::pair{"counts", &r.counts},
                                    std::pair{"host", &r.host}}) {
    json += std::string(", \"") + key + "\": {";
    bool sep = false;
    for (const auto& [k, v] : *values) {
      if (sep) json += ", ";
      sep = true;
      json += "\"" + k + "\": " + json_number(v);
    }
    json += "}";
  }
  json += "}";
  std::printf("%s\n", json.c_str());
  return 0;
}
