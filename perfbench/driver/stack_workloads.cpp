// mtbf-16k and ckpt-rs-512: MiniGhost through the whole stack (clustering,
// sim, net, mpi, the SPBC protocol, staging and the checkpoint store) with
// two injected node losses.
//
// One repetition follows the paper's Section 6.1 method and times each step
// from outside: a traced native run feeds the clustering tool (setup), the
// Machine is built and launched (setup), then the run itself (wall). Traced
// repetitions install TimedHooks around the protocol.
//
// Correctness:
//   * per-rank app checksums equal those of a native-library run of the same
//     app and iterations (synthetic payloads fold distinct per-rank hashes);
//   * one complete recovery exists per injected failure, and the ranks it
//     restarted are exactly the victim's cluster in the cluster map;
//   * ckpt-rs-512: every epoch the store still holds, decoded through
//     Store::materialize, ends with the state ckpt::make_state /
//     ckpt::evolve_state give for (seed, rank, epoch).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "apps/app.hpp"
#include "baselines/presets.hpp"
#include "ckpt/reduction.hpp"
#include "ckpt/store.hpp"
#include "clustering/comm_graph.hpp"
#include "clustering/partitioner.hpp"
#include "common.hpp"
#include "core/spbc.hpp"
#include "mpi/machine.hpp"
#include "timed_hooks.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace perfbench {

namespace {

namespace sm = spbc::mpi;
namespace ck = spbc::ckpt;

constexpr uint64_t kUnpublished = ~0ull;
constexpr int kPpn = 8;
constexpr int kClusters = 8;
constexpr int kTraceIters = 3;  // iterations of the traced clustering run

struct StackSpec {
  const char* name = "";
  int ranks = 0;
  int iters = 3;
  double msg_scale = 1.0;
  double compute_scale = 1.0;
  int engine_shards = 1;
  int engine_threads = 1;
  bool aggregate_rollbacks = false;
  bool tree_ckpt_markers = false;
  spbc::core::SpbcConfig spbc;
  // Node-loss times as fractions of the native makespan, both inside the
  // failure-free span.
  double fail_frac[2] = {0.45, 0.75};
};

StackSpec mtbf_spec() {
  StackSpec s;
  s.name = "mtbf-16k";
  s.ranks = 16384;
  s.iters = 3;
  s.msg_scale = 0.05;
  s.compute_scale = 0.05;
  s.engine_shards = 0;  // one exec shard per cluster
  s.engine_threads = 2;
  s.aggregate_rollbacks = true;
  s.tree_ckpt_markers = true;
  s.spbc.checkpoint_every = 2;  // checkpoint I/O stays free (kNone)
  // Both losses land before any cluster reaches its first checkpoint, so
  // both clusters roll back to the initial state whatever the seed and the
  // simulated makespan stays comparable across seeds. Later losses (while a
  // wave is in flight) end with wrong checksums on some seeds; see
  // perfbench/README.md, known faults.
  s.fail_frac[0] = 0.02;
  s.fail_frac[1] = 0.6;
  return s;
}

StackSpec ckpt_spec(uint64_t seed) {
  StackSpec s;
  s.name = "ckpt-rs-512";
  s.ranks = 512;
  s.iters = 8;
  s.spbc.checkpoint_every = 2;
  s.spbc.storage = ck::StorageLevel::kPfs;
  s.spbc.async_staging = true;
  s.spbc.redundancy.kind = ck::SchemeKind::kReedSolomon;
  s.spbc.redundancy.rs_k = 4;
  s.spbc.redundancy.rs_m = 2;
  s.spbc.reduction.delta = true;
  s.spbc.reduction.block_bytes = 4096;
  s.spbc.reduction.compress = true;
  s.spbc.state_model.bytes = 1 << 20;
  s.spbc.state_model.block_bytes = 4096;
  s.spbc.state_model.mutation_rate = 0.10;
  s.spbc.state_model.seed = seed;
  return s;
}

sm::MachineConfig machine_config(const StackSpec& s, uint64_t seed) {
  sm::MachineConfig mc;
  mc.nranks = s.ranks;
  mc.ranks_per_node = kPpn;
  mc.seed = seed;
  // System noise as on a real testbed: OS jitter on compute blocks and
  // latency jitter on the network, both pure functions of the seed.
  mc.compute_noise_frac = 0.08;
  mc.net.jitter_frac = 0.20;
  mc.net.jitter_seed = seed;
  mc.engine_shards = s.engine_shards;
  mc.engine_threads = s.engine_threads;
  mc.aggregate_rollbacks = s.aggregate_rollbacks;
  mc.tree_ckpt_markers = s.tree_ckpt_markers;
  return mc;
}

spbc::apps::AppConfig app_config(const StackSpec& s, int iters) {
  spbc::apps::AppConfig a;
  a.iters = iters;
  a.msg_scale = s.msg_scale;
  a.compute_scale = s.compute_scale;
  a.validate = false;  // synthetic payloads: the benches' protocol path
  return a;
}

/// Checksum sink with every rank's key inserted before launch: ranks on
/// concurrent shard threads then only overwrite their own value and never
/// restructure the map (apps::publish_checksum inserts otherwise).
std::map<int, uint64_t> presized_sink(int ranks) {
  std::map<int, uint64_t> sink;
  for (int r = 0; r < ranks; ++r) sink.emplace_hint(sink.end(), r, kUnpublished);
  return sink;
}

struct NativeRun {
  std::map<int, uint64_t> checksums;
  spbc::clustering::CommGraph graph;
  double makespan = 0;
  bool completed = false;
};

/// The unmodified library (no protocol, one cluster, serial engine).
NativeRun run_native(const StackSpec& s, uint64_t seed, int iters) {
  sm::MachineConfig mc = machine_config(s, seed);
  mc.engine_shards = 1;
  mc.engine_threads = 1;
  sm::Machine m(mc, spbc::baselines::make_native());
  m.set_cluster_of(spbc::baselines::single_cluster_map(s.ranks));
  std::map<int, uint64_t> sink = presized_sink(s.ranks);
  spbc::apps::AppConfig acfg = app_config(s, iters);
  acfg.checksums = &sink;
  const spbc::apps::AppInfo& info = spbc::apps::find_app("MiniGhost");
  m.launch([&info, acfg](sm::Rank& r) { info.main(r, acfg); });
  const sm::RunResult rr = m.run();
  return NativeRun{std::move(sink),
                   spbc::clustering::CommGraph::from_traffic(s.ranks, m.traffic()),
                   rr.finish_time, rr.completed};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

class StackWorkload final : public Workload {
 public:
  StackWorkload(StackSpec spec, uint64_t seed, Checks& checks)
      : spec_(std::move(spec)), seed_(seed) {
    if (spec_.iters != kTraceIters) {
      // The set-up's traced run is shorter than the workload: the reference
      // checksums and the failure-free span come from a full native run.
      NativeRun ref = run_native(spec_, seed_, spec_.iters);
      checks.expect(ref.completed, "native reference run completed");
      ref_checksums_ = std::move(ref.checksums);
      span_ = ref.makespan;
    }
  }

  RepOut rep(bool traced, Checks& checks) override;

 private:
  /// Save/materialize throughput of a fresh store, with the workload's
  /// reduction settings, on the snapshots the workload's store still holds
  /// (traced repetitions only).
  void time_store(const spbc::core::SpbcProtocol& proto, LayerValues& layers,
                  Checks& checks) const;
  void check_stored_epochs(const spbc::core::SpbcProtocol& proto,
                           Checks& checks) const;

  StackSpec spec_;
  uint64_t seed_;
  std::map<int, uint64_t> ref_checksums_;  // empty: taken from the trace run
  double span_ = 0;
};

RepOut StackWorkload::rep(bool traced, Checks& checks) {
  RepOut out;
  LayerValues& C = out.counts;
  LayerValues& H = out.host;
  const int n = spec_.ranks;

  // ---- set-up: traced native run + clustering tool -----------------------
  const double t_setup = host_now();
  NativeRun trace = run_native(spec_, seed_, kTraceIters);
  const double t_trace = host_now();
  checks.expect(trace.completed, "traced native run completed");
  const spbc::sim::Topology topo =
      spbc::sim::Topology::for_ranks(n, kPpn);
  spbc::clustering::Partitioner part(trace.graph, topo);
  spbc::clustering::PartitionConfig pc;
  pc.objective = spbc::clustering::Objective::kMinTotalLogged;
  const spbc::clustering::PartitionResult pr = part.partition(kClusters, pc);
  const double t_part = host_now();
  const std::map<int, uint64_t>& ref =
      ref_checksums_.empty() ? trace.checksums : ref_checksums_;
  const double span = span_ > 0 ? span_ : trace.makespan;

  // Two node losses inside the failure-free span, in distinct clusters.
  spbc::util::Pcg32 rng(seed_, 0xfa11);
  int victims[2];
  victims[0] = static_cast<int>(rng.next_bounded(static_cast<uint32_t>(n)));
  do {
    victims[1] = static_cast<int>(rng.next_bounded(static_cast<uint32_t>(n)));
  } while (pr.cluster_of[static_cast<size_t>(victims[1])] ==
           pr.cluster_of[static_cast<size_t>(victims[0])]);

  // ---- set-up: Machine construction, cluster map, launch ------------------
  std::unique_ptr<sm::ProtocolHooks> hooks;
  spbc::core::SpbcProtocol* proto = nullptr;
  if (traced) {
    auto timed = std::make_unique<TimedHooks>(spec_.spbc);
    proto = &timed->inner();
    hooks = std::move(timed);
  } else {
    auto plain = std::make_unique<spbc::core::SpbcProtocol>(spec_.spbc);
    proto = plain.get();
    hooks = std::move(plain);
  }
  sm::Machine m(machine_config(spec_, seed_), std::move(hooks));
  m.set_cluster_of(pr.cluster_of);
  std::map<int, uint64_t> sink = presized_sink(n);
  spbc::apps::AppConfig acfg = app_config(spec_, spec_.iters);
  acfg.checksums = &sink;
  const spbc::apps::AppInfo& info = spbc::apps::find_app("MiniGhost");
  m.launch([&info, acfg](sm::Rank& r) { info.main(r, acfg); });
  for (int i = 0; i < 2; ++i)
    m.inject_failure(spec_.fail_frac[i] * span, victims[i]);
  const double t_built = host_now();

  // ---- the run -------------------------------------------------------------
  reset_hook_totals();
  const double cpu0 = process_cpu_s();
  const sm::RunResult rr = m.run();
  out.wall_s = host_now() - t_built;
  const double cpu_s = process_cpu_s() - cpu0;
  out.setup_s = t_built - t_setup;
  out.makespan_s = rr.finish_time;

  // ---- checks ----------------------------------------------------------------
  for (int i = 0; i < 2; ++i)
    std::printf("%s: node loss at %.9g s kills rank %d (cluster %d)\n",
                spec_.name, spec_.fail_frac[i] * span, victims[i],
                pr.cluster_of[static_cast<size_t>(victims[i])]);
  checks.expect(rr.completed, "simulation completed without deadlock");
  int bad_sums = 0;
  for (int r = 0; r < n; ++r) {
    const uint64_t got = sink[r];
    const auto it = ref.find(r);
    const bool ok = got != kUnpublished && it != ref.end() && it->second == got;
    bad_sums += ok ? 0 : 1;
    checks.expect(ok, "checksum equals the native run", r);
  }
  const std::vector<sm::RecoveryRecord>& recs = m.recoveries();
  checks.expect(recs.size() == 2, "one recovery per injected failure");
  for (const sm::RecoveryRecord& rec : recs)
    std::printf("%s: cluster %d failed at %.9g s, rolled back to %.9g s, "
                "restarted at %.9g s, caught up at %.9g s\n",
                spec_.name, rec.failed_cluster, rec.failure_time,
                rec.checkpoint_time, rec.restart_time, rec.caught_up_time);
  for (int v : victims) {
    const int cluster = pr.cluster_of[static_cast<size_t>(v)];
    std::vector<int> members;
    for (int r = 0; r < n; ++r)
      if (pr.cluster_of[static_cast<size_t>(r)] == cluster) members.push_back(r);
    const auto rec = std::find_if(recs.begin(), recs.end(), [&](const auto& x) {
      return x.failed_cluster == cluster;
    });
    checks.expect(rec != recs.end() && rec->complete(),
                  "victim's cluster recovered completely", v);
    std::vector<int> restarted;
    if (rec != recs.end())
      for (const auto& [r, ops] : rec->target_ops) restarted.push_back(r);
    checks.expect(restarted == members,
                  "restarted ranks are exactly the victim's cluster", v);
  }
  if (spec_.spbc.state_model.bytes > 0) check_stored_epochs(*proto, checks);
  std::printf("%s: %d ranks, %d checksum mismatches, %zu recoveries\n",
              spec_.name, n, bad_sums, recs.size());

  // ---- per-layer counters, read from public accessors ----------------------
  const spbc::sim::Engine::Stats es = m.engine().stats();
  const double events = static_cast<double>(es.events + es.serial_events);
  C["sim.events"] = static_cast<double>(es.events);
  C["sim.serial_events"] = static_cast<double>(es.serial_events);
  C["sim.windows"] = static_cast<double>(es.windows);
  H["sim.events_per_s"] = events / out.wall_s;
  H["sim.parallelism"] = cpu_s / out.wall_s;
  C["sim.peak_live_stacks"] = static_cast<double>(es.peak_live_stacks);

  C["net.transfers"] = static_cast<double>(m.network().transfers_submitted());
  C["net.mb"] = static_cast<double>(m.network().bytes_submitted()) / 1e6;

  double msgs = 0, bytes = 0, suppressed = 0, dups = 0, logged = 0, log_hwm = 0;
  for (int r = 0; r < n; ++r) {
    const sm::RankProfile& p = m.rank(r).profile();
    msgs += static_cast<double>(p.sends);
    bytes += static_cast<double>(p.bytes_sent_intra_cluster +
                                 p.bytes_sent_inter_cluster);
    suppressed += static_cast<double>(p.suppressed_sends);
    dups += static_cast<double>(p.duplicate_drops);
    logged += static_cast<double>(proto->log_of(r).bytes_appended());
    log_hwm = std::max(
        log_hwm, static_cast<double>(proto->log_of(r).bytes_retained_hwm()));
  }
  C["mpi.messages"] = msgs;
  C["mpi.mb"] = bytes / 1e6;
  C["mpi.suppressed_sends"] = suppressed;
  C["mpi.duplicate_drops"] = dups;
  H["mpi.build_s"] = t_built - t_part;

  if (traced) {
    const HookTotals ht = hook_totals();
    H["core.hook_s"] = ht.seconds;
    C["core.hook_calls"] = static_cast<double>(ht.calls);
  }
  double restarts = 0, wasted = 0;
  std::vector<double> recovery;
  for (const sm::RecoveryRecord& rec : recs) {
    const double k = static_cast<double>(rec.target_ops.size());
    restarts += k;
    wasted += k * (rec.failure_time - rec.checkpoint_time);
    recovery.push_back(rec.caught_up_time - rec.failure_time);
  }
  C["core.rank_restarts"] = restarts;
  C["core.wasted_rank_s"] = wasted;
  C["core.recovery_s"] = median(recovery);
  C["core.checkpoints"] = static_cast<double>(proto->checkpoints_taken());
  C["core.log_mb"] = logged / 1e6;
  C["core.log_hwm_mb"] = log_hwm / 1e6;

  const ck::Store& store = proto->store();
  const ck::StagingStats& st = proto->staging().stats();
  const double taken = static_cast<double>(store.snapshots_taken());
  C["ckpt.raw_mb"] = static_cast<double>(store.total_raw_bytes()) / 1e6;
  C["ckpt.stored_mb"] = static_cast<double>(store.total_bytes_written()) / 1e6;
  C["ckpt.partner_mb"] =
      static_cast<double>(st.bytes_to_partner + st.bytes_to_parity) / 1e6;
  C["ckpt.pfs_mb"] = static_cast<double>(st.bytes_to_pfs) / 1e6;
  C["ckpt.rebuild_read_mb"] = static_cast<double>(st.rebuild_bytes_read) / 1e6;
  C["ckpt.delta_share"] =
      taken > 0 ? static_cast<double>(store.delta_snapshots()) / taken : 0.0;
  C["ckpt.restores.local"] = static_cast<double>(st.restores_by_level[0]);
  C["ckpt.restores.partner"] = static_cast<double>(st.restores_by_level[1]);
  C["ckpt.restores.pfs"] = static_cast<double>(st.restores_by_level[2]);
  C["ckpt.rebuild_restores"] = static_cast<double>(st.rebuild_restores);
  C["ckpt.epoch_fallbacks"] = static_cast<double>(st.epoch_fallbacks);
  if (traced && spec_.spbc.state_model.bytes > 0) time_store(*proto, H, checks);

  H["clustering.trace_s"] = t_trace - t_setup;
  H["clustering.partition_s"] = t_part - t_trace;
  C["clustering.logged_mb"] = static_cast<double>(pr.logged_bytes) / 1e6;
  return out;
}

void StackWorkload::check_stored_epochs(const spbc::core::SpbcProtocol& proto,
                                        Checks& checks) const {
  const ck::Store& store = proto.store();
  const ck::StateModelConfig& model = spec_.spbc.state_model;
  std::vector<unsigned char> scratch;
  int checked = 0, bad = 0;
  // Bytes in front of the state (runtime, sender log, app state): when they
  // change between epochs the state's 4 KiB block grid shifts and every
  // block of a delta capture reads as changed.
  size_t prefix_min = ~size_t{0}, prefix_max = 0;
  for (int r = 0; r < spec_.ranks; ++r) {
    checks.expect(store.has(r), "store holds an epoch of every rank", r);
    if (!store.has(r)) continue;
    const uint64_t last = store.latest(r).epoch;
    std::vector<unsigned char> state = ck::make_state(model, r);
    for (uint64_t e = 1; e <= last; ++e) {
      ck::evolve_state(state, model, r, e);
      if (!store.has_epoch(r, e)) continue;
      const std::vector<unsigned char>& bytes = store.materialize(r, e, scratch);
      const bool ok =
          bytes.size() >= state.size() &&
          std::equal(state.begin(), state.end(), bytes.end() - static_cast<long>(state.size()));
      if (bytes.size() >= state.size()) {
        prefix_min = std::min(prefix_min, bytes.size() - state.size());
        prefix_max = std::max(prefix_max, bytes.size() - state.size());
      }
      ++checked;
      bad += ok ? 0 : 1;
      checks.expect(ok, "stored epoch decodes to the generated state", r);
    }
  }
  std::printf("%s: %d stored epochs decoded, %d differ from the state model; "
              "%zu..%zu snapshot bytes precede the state\n",
              spec_.name, checked, bad, prefix_min, prefix_max);
}

void StackWorkload::time_store(const spbc::core::SpbcProtocol& proto,
                               LayerValues& layers, Checks& checks) const {
  const ck::Store& held = proto.store();
  std::vector<unsigned char> scratch;
  double raw = 0, save_s = 0, mat_s = 0;
  for (int r = 0; r < spec_.ranks; ++r) {
    if (!held.has(r)) continue;
    // The rank's snapshots exactly as the workload captured them, variable
    // prefix included, oldest first so each can delta against the previous.
    std::vector<ck::Snapshot> snaps;
    for (uint64_t e = 1; e <= held.latest(r).epoch; ++e) {
      if (!held.has_epoch(r, e)) continue;
      ck::Snapshot snap;
      snap.taken_at = held.at_epoch(r, e).taken_at;
      snap.epoch = e;
      snap.bytes = held.materialize(r, e, scratch);
      raw += static_cast<double>(snap.bytes.size());
      snaps.push_back(std::move(snap));
    }
    ck::Store store;
    store.set_reduction(spec_.spbc.reduction);
    for (const ck::Snapshot& snap : snaps) {
      ck::Snapshot copy = snap;
      const double t0 = host_now();
      store.save(r, std::move(copy));
      save_s += host_now() - t0;
    }
    for (const ck::Snapshot& snap : snaps) {
      const double t0 = host_now();
      const std::vector<unsigned char>& got = store.materialize(r, snap.epoch, scratch);
      mat_s += host_now() - t0;
      checks.expect(got == snap.bytes, "store round trip", r);
    }
  }
  layers["ckpt.save_mb_per_s"] = raw / 1e6 / save_s;
  layers["ckpt.materialize_mb_per_s"] = raw / 1e6 / mat_s;
}

}  // namespace

std::unique_ptr<Workload> make_mtbf_workload(uint64_t seed, int engine_threads,
                                             Checks& checks) {
  StackSpec spec = mtbf_spec();
  if (engine_threads > 0) spec.engine_threads = engine_threads;
  return std::make_unique<StackWorkload>(std::move(spec), seed, checks);
}

std::unique_ptr<Workload> make_ckpt_workload(uint64_t seed, Checks& checks) {
  return std::make_unique<StackWorkload>(ckpt_spec(seed), seed, checks);
}

}  // namespace perfbench
