// High-level experiment drivers: the three measurement protocols of the
// paper's evaluation (§VI) as reusable library calls.
//
//  - run_steady: warm-up then windowed measurement of latency and
//    accepted throughput at fixed offered load (Figs. 3-5, 8, 9);
//  - run_transient: pattern switch at a cycle boundary, latency accounted
//    to the cycle each packet was sent (Fig. 6);
//  - run_burst: fixed per-node packet budget injected as fast as possible,
//    measuring the cycle the network drains (Fig. 7).
//
// For whole experiment grids (figure x mechanism x load x seed) with
// caching and resume, drive these through core/orchestrator.hpp instead of
// calling them point-by-point.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "traffic/pattern.hpp"

namespace ofar {

class MetricsSink;
class Network;

/// Read-only instrumentation of a run: invariant auditing, telemetry and
/// packet tracing. Per-seed results are bit-identical with any of it on or
/// off, so none of these knobs belong in a cached point key.
struct Instrumentation {
  /// Cycles between invariant-auditor runs (Network::enable_audit);
  /// 0 disables. The run just aborts with a report if an invariant breaks.
  Cycle audit_interval = 0;

  // ---- telemetry (stats/metrics.hpp); active when metrics_sink != null.
  // The sink is shared, not owned: a sweep points every run at one file and
  // each record carries the run's label to tell the runs apart.
  MetricsSink* metrics_sink = nullptr;
  Cycle metrics_interval = 1'000;
  bool metrics_full = false;  ///< also per-channel and per-VC records

  // ---- packet tracing (trace/tracer.hpp, DESIGN.md §11); active when
  // trace_out is non-empty.
  std::string trace_out;  ///< Chrome trace-event JSON (chrome://tracing)
  u32 trace_sample = 64;  ///< trace 1-in-N packets by hash(seq); <=1: all
};

/// How one run executes, as opposed to what it simulates: every member is
/// result-invariant, so none of it is part of a point's cache key. Passed
/// beside the protocol parameters to run_steady, run_transient and
/// run_burst; the orchestrator builds one per executed point.
struct RunContext {
  Instrumentation instrumentation;
  /// Telemetry record and trace label (plus a per-run suffix).
  std::string label;

  /// Rewrite trace paths per run ("t.json" -> "t.<label>-s<seed>.json") so
  /// the parallel points of a sweep do not overwrite each other's files.
  /// Leave false for single runs where the exact output name matters.
  bool trace_per_point = false;

  /// Worker threads for the sharded cycle kernel (Network::set_sim_threads).
  /// Any value produces the same per-seed results for a given
  /// SimConfig::sim_shards. 0 means 1 (sequential). Ignored when
  /// sim_shards == 1.
  unsigned sim_threads = 1;

  // ---- optional checkpoint/restart (core/checkpoint.hpp). Steady runs
  // only (the big-topology protocol); a checkpointed run restored mid-way
  // continues bit-identically, so results and cache keys are unchanged.
  /// Checkpoint file for this run; "" disables. When the file exists and
  /// restores (CheckpointIO::restore), the run resumes from it instead of
  /// starting at cycle 0; a file it rejects gets a warning on stderr and
  /// the run starts at cycle 0. It is refreshed every checkpoint_interval
  /// cycles and deleted once the run completes.
  std::string checkpoint_path;
  /// Cycles between checkpoint refreshes (0: only the warmup-boundary
  /// snapshot is written).
  Cycle checkpoint_interval = 100'000;
};

/// Steady-state measurement windows.
struct RunParams {
  Cycle warmup = 20'000;
  Cycle measure = 30'000;

  /// RunParams{warmup, measure}, named at the call site.
  static RunParams windows(Cycle warmup, Cycle measure) {
    return {warmup, measure};
  }
};

struct SteadyResult {
  double offered_load = 0.0;   ///< phits/(node*cycle) generated in window
  double accepted_load = 0.0;  ///< phits/(node*cycle) delivered in window
  double avg_latency = 0.0;    ///< cycles, delivered packets in window
  double stddev_latency = 0.0;
  u64 delivered_packets = 0;
  u64 local_misroutes = 0;
  u64 global_misroutes = 0;
  u64 ring_entries = 0;
  u64 stalled_packets = 0;  ///< deadlock-watchdog hits (0 in healthy runs)
  u64 worst_stall = 0;      ///< longest observed head-of-line wait, cycles
  double mean_hops = 0.0;
};

/// One steady-state point: fresh network, Bernoulli traffic at `load`.
SteadyResult run_steady(const SimConfig& cfg, const TrafficPattern& pattern,
                        double load, const RunParams& params = {},
                        const RunContext& ctx = {});

struct TransientParams {
  Cycle warmup = 30'000;      ///< cycles of pattern A before the switch
  Cycle horizon = 20'000;     ///< observed birth-cycle span after the switch
  Cycle lead = 2'000;         ///< observed span before the switch
  Cycle drain = 30'000;       ///< extra cycles so late packets deliver
  u32 bucket = 100;           ///< series bucket width, cycles
};

struct TransientBucket {
  i64 cycle_rel = 0;  ///< bucket centre relative to the switch cycle
  double mean_latency = 0.0;
  u64 packets = 0;
};

struct TransientResult {
  std::vector<TransientBucket> series;
};

/// Pattern A at load_a until the switch, then pattern B at load_b.
TransientResult run_transient(const SimConfig& cfg,
                              const TrafficPattern& pattern_a, double load_a,
                              const TrafficPattern& pattern_b, double load_b,
                              const TransientParams& params = {},
                              const RunContext& ctx = {});

struct BurstParams {
  u32 packets_per_node = 400;       ///< paper §VI-C uses 2000
  Cycle max_cycles = 5'000'000;     ///< abandon the run if not drained by then
};

struct BurstResult {
  Cycle completion = 0;  ///< cycle at which every packet was delivered
  u64 delivered_packets = 0;
  double avg_latency = 0.0;
  u64 ring_entries = 0;
  bool completed = false;  ///< false when max_cycles elapsed first
};

/// Every node injects `params.packets_per_node` packets as fast as possible.
BurstResult run_burst(const SimConfig& cfg, const TrafficPattern& pattern,
                      const BurstParams& params = {},
                      const RunContext& ctx = {});

}  // namespace ofar
