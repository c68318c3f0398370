// engine-131k: the bare event engine (src/sim) at ablation scale.
//
// The token ping of bench/micro_engine_scale: R rank fibers in 64 key shards,
// each iterating wait(jittered dt) -> deliver a wake token to the partner
// half the machine away (a cross-shard event one lookahead later) -> park
// until its own token arrives. Only sim runs here, so the workload isolates
// per-event cost and fiber-stack memory.
//
// Correctness does not trust the engine: a rank's trajectory depends only on
// its pair (r, r + R/2), so every rank's wake times, and therefore its hash,
// follow in closed form from the same double arithmetic the engine performs.
// Every rank is checked against that closed form, and at reduced size a
// different exec layout on two threads must reproduce it (DESIGN §12).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common.hpp"
#include "sim/engine.hpp"

namespace perfbench {

namespace {

namespace sim = spbc::sim;

constexpr int kRanks = 131072;
constexpr int kClusters = 64;
constexpr int kIters = 4;
constexpr size_t kStackBytes = 64 * 1024;
constexpr int kCheckRanks = 8192;  // reduced size of the layout check
constexpr int kCheckExec = 8;
constexpr int kCheckThreads = 2;

const sim::Time kLookahead = sim::usec(10.0);

uint64_t mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t time_bits(sim::Time t) {
  uint64_t b = 0;
  static_assert(sizeof(t) == sizeof(b));
  std::memcpy(&b, &t, sizeof(b));
  return b;
}

int cluster_of(int r, int ranks) {
  return static_cast<int>(static_cast<int64_t>(r) * kClusters / ranks);
}

int peer_of(int r, int ranks) { return (r + ranks / 2) % ranks; }

uint64_t initial_hash(uint64_t seed, int r) {
  return mix64(mix64(seed) ^ (static_cast<uint64_t>(r) + 1));
}

sim::Time compute_block(uint64_t h, int i) {
  const double jit =
      static_cast<double>(mix64(h ^ static_cast<uint64_t>(i)) & 0xff) / 256.0;
  return sim::usec(20.0) * (1.0 + 0.25 * jit);
}

struct Trajectory {
  std::vector<uint64_t> hash;   // per rank
  std::vector<int> rounds;      // per rank: tokens consumed
  sim::Time makespan = 0;
};

/// Closed form of the token ping: rank r's i-th block ends at
/// a = s + dt; its token reaches the peer at a + L (L = 0 inside a shard);
/// it resumes at max(a, a_peer + L), the later of its own block end and the
/// peer's token.
Trajectory closed_form(uint64_t seed, int ranks) {
  Trajectory t;
  t.hash.resize(static_cast<size_t>(ranks));
  t.rounds.assign(static_cast<size_t>(ranks), kIters);
  for (int r = 0; r < ranks; ++r) {
    const int p = peer_of(r, ranks);
    if (p < r) continue;  // each pair once
    const sim::Time lat =
        cluster_of(r, ranks) == cluster_of(p, ranks) ? 0.0 : kLookahead;
    uint64_t hr = initial_hash(seed, r), hp = initial_hash(seed, p);
    sim::Time sr = 0.0, sp = 0.0;
    for (int i = 0; i < kIters; ++i) {
      const sim::Time ar = sr + compute_block(hr, i);
      const sim::Time ap = sp + compute_block(hp, i);
      sr = std::max(ar, ap + lat);
      sp = std::max(ap, ar + lat);
      hr = mix64(hr ^ time_bits(sr));
      hp = mix64(hp ^ time_bits(sp));
    }
    t.hash[static_cast<size_t>(r)] = hr;
    t.hash[static_cast<size_t>(p)] = hp;
    t.makespan = std::max({t.makespan, sr, sp});
  }
  return t;
}

struct EngineRun {
  Trajectory traj;
  double setup_s = 0, wall_s = 0, cpu_s = 0;
  sim::Engine::Stats stats;
};

EngineRun run_engine(uint64_t seed, int ranks, int exec_shards, int threads) {
  EngineRun out;
  const double t_setup = host_now();
  sim::Engine eng(kStackBytes);
  eng.set_shard_plan(kClusters, exec_shards);
  eng.set_lookahead(kLookahead);
  if (threads > 1) eng.set_threads(threads);

  std::vector<sim::Engine::TaskId> ids(static_cast<size_t>(ranks),
                                       sim::Engine::kInvalidTask);
  std::vector<int> tokens(static_cast<size_t>(ranks), 0);
  Trajectory& tr = out.traj;
  tr.hash.assign(static_cast<size_t>(ranks), 0);
  tr.rounds.assign(static_cast<size_t>(ranks), 0);

  for (int r = 0; r < ranks; ++r) {
    const int peer = peer_of(r, ranks);
    const int my_cluster = cluster_of(r, ranks);
    const int peer_cluster = cluster_of(peer, ranks);
    ids[static_cast<size_t>(r)] = eng.spawn_on(
        my_cluster, [&eng, &ids, &tokens, &tr, seed, r, peer, my_cluster,
                     peer_cluster] {
          uint64_t h = initial_hash(seed, r);
          for (int i = 0; i < kIters; ++i) {
            eng.wait(compute_block(h, i));
            auto deliver = [&eng, &ids, &tokens, peer] {
              ++tokens[static_cast<size_t>(peer)];
              eng.unpark(ids[static_cast<size_t>(peer)]);
            };
            if (peer_cluster == my_cluster)
              eng.after(0.0, deliver);
            else
              eng.after_on(peer_cluster, kLookahead, deliver);
            while (tokens[static_cast<size_t>(r)] == 0) eng.park();
            --tokens[static_cast<size_t>(r)];
            ++tr.rounds[static_cast<size_t>(r)];
            h = mix64(h ^ time_bits(eng.now()));
          }
          tr.hash[static_cast<size_t>(r)] = h;
        });
  }

  const double cpu0 = process_cpu_s();
  const double t0 = host_now();
  out.setup_s = t0 - t_setup;
  tr.makespan = eng.run();
  out.wall_s = host_now() - t0;
  out.cpu_s = process_cpu_s() - cpu0;
  out.stats = eng.stats();
  return out;
}

uint64_t fingerprint(const Trajectory& t) {
  uint64_t x = 0;
  for (uint64_t h : t.hash) x ^= h;
  return x;
}

class EngineWorkload final : public Workload {
 public:
  EngineWorkload(uint64_t seed, Checks& checks)
      : seed_(seed), ref_(closed_form(seed, kRanks)) {
    // Layout independence at reduced size, outside the timed runs: a
    // different exec width on two worker threads against the closed form.
    const Trajectory small = closed_form(seed, kCheckRanks);
    const EngineRun alt =
        run_engine(seed, kCheckRanks, kCheckExec, kCheckThreads);
    checks.expect(fingerprint(alt.traj) == fingerprint(small),
                  "engine fingerprint differs on exec=8 threads=2");
    checks.expect(alt.traj.makespan == small.makespan,
                  "engine makespan differs on exec=8 threads=2");
  }

  RepOut rep(bool /*traced*/, Checks& checks) override {
    // The engine has no probes of its own: a traced repetition reads the
    // engine's public stats, which it keeps in every run.
    EngineRun run = run_engine(seed_, kRanks, /*exec_shards=*/0, /*threads=*/1);
    int bad_hash = 0, bad_rounds = 0;
    for (int r = 0; r < kRanks; ++r) {
      const size_t i = static_cast<size_t>(r);
      const bool rounds_ok = run.traj.rounds[i] == kIters;
      const bool hash_ok = run.traj.hash[i] == ref_.hash[i];
      bad_rounds += rounds_ok ? 0 : 1;
      bad_hash += hash_ok ? 0 : 1;
      checks.expect(rounds_ok, "rank completed its rounds", r);
      checks.expect(hash_ok, "rank trajectory hash matches closed form", r);
    }
    checks.expect(run.traj.makespan == ref_.makespan, "engine makespan");
    std::printf("engine-131k: %d ranks, %d bad hashes, %d bad round counts\n",
                kRanks, bad_hash, bad_rounds);

    RepOut out;
    out.setup_s = run.setup_s;
    out.wall_s = run.wall_s;
    out.makespan_s = run.traj.makespan;
    const double events =
        static_cast<double>(run.stats.events + run.stats.serial_events);
    out.counts["sim.events"] = static_cast<double>(run.stats.events);
    out.counts["sim.serial_events"] =
        static_cast<double>(run.stats.serial_events);
    out.counts["sim.windows"] = static_cast<double>(run.stats.windows);
    out.counts["sim.peak_live_stacks"] =
        static_cast<double>(run.stats.peak_live_stacks);
    out.host["sim.events_per_s"] = events / run.wall_s;
    out.host["sim.parallelism"] = run.cpu_s / run.wall_s;
    return out;
  }

 private:
  uint64_t seed_;
  Trajectory ref_;
};

}  // namespace

std::unique_ptr<Workload> make_engine_workload(uint64_t seed, Checks& checks) {
  return std::make_unique<EngineWorkload>(seed, checks);
}

}  // namespace perfbench
