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
/// off, so none of these knobs belong in a cached point key. Declared once
/// and copied whole: BenchOptions -> OrchestratorOptions -> ExperimentCommon.
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

/// Knobs shared by every experiment protocol. A new shared knob is added
/// here once and every protocol (steady, transient, burst) picks it up.
struct ExperimentCommon {
  Instrumentation instrumentation;
  /// Telemetry record and trace label (plus a per-run suffix).
  std::string metrics_label;

  /// Rewrite trace paths per run ("t.json" -> "t.<label>-s<seed>.json") so
  /// the parallel points of a sweep sharing one params object do not
  /// overwrite each other's files. Leave false for single runs where the
  /// exact output name matters.
  bool trace_per_point = false;

  /// Worker threads for the sharded cycle kernel (Network::set_sim_threads).
  /// Execution-only: any value produces the same per-seed results for a
  /// given SimConfig::sim_shards, so it is NOT part of the cached point
  /// key. 0 means 1 (sequential). Ignored when sim_shards == 1.
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

  /// Wires auditing, tracing and telemetry into a freshly built network.
  /// The telemetry record label and trace label are
  /// "<metrics_label>|<label_suffix>" (either part optional). Called by
  /// every run_* driver before the first cycle.
  void arm(Network& net, const std::string& label_suffix = "") const;
};

struct RunParams : ExperimentCommon {
  Cycle warmup = 20'000;
  Cycle measure = 30'000;

  /// RunParams with just the measurement windows set. Spelled as a factory
  /// because partial brace-init of RunParams trips
  /// -Wmissing-field-initializers on the optional telemetry members.
  static RunParams windows(Cycle warmup, Cycle measure) {
    RunParams p;
    p.warmup = warmup;
    p.measure = measure;
    return p;
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
                        double load, const RunParams& params = {});

struct TransientParams : ExperimentCommon {
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
                              const TransientParams& params = {});

struct BurstParams : ExperimentCommon {
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
                      const BurstParams& params = {});

}  // namespace ofar
