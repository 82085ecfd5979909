// Shared scaffolding for the figure-reproduction benches: common CLI
// options (network scale, measurement windows, CSV output, thread count,
// result cache) and the load-grid helper. The figure logic itself lives in
// presets.cpp, run by `ofar_run --preset NAME`.
//
// Every preset accepts:
//   --h N           network radix (paper: 6; default 4 — see EXPERIMENTS.md)
//   --seed S        RNG seed
//   --warmup C      warm-up cycles before the measurement window (steady
//                   presets; fig6 and fig7 run their own protocol windows)
//   --measure C     measurement window width (steady presets)
// and, like every `--spec` run, the execution flags:
//   --csv-dir D     existing directory for CSV dumps ("" disables)
//   --threads T     total thread budget (0 = hardware concurrency)
//   --sim-threads N worker threads inside each simulation (sharded cycle
//                   kernel; 0 = auto split of the --threads budget).
//                   Effective only when the config runs sim_shards > 1.
//   --metrics-out F       stream telemetry records to F (JSONL, whatever
//                         the extension)
//   --metrics-interval C  cycles between interval snapshots (default 1000)
//   --metrics-full        also dump per-channel records (exact per-link
//                         utilisation) and per-VC records
//   --audit               run the invariant auditor every 4096 cycles
//   --audit-interval C    audit every C cycles (implies --audit)
//   --trace-out F     packet-journey Chrome trace JSON (chrome://tracing /
//                     ui.perfetto.dev); per-point file names when the run
//                     executes more than one point
//   --trace-sample N  trace 1 in N packets (default 64; 1 traces all)
//   --cache-dir D   content-addressed result cache + resume journal
//                   (default .ofar-cache; "" disables)
//   --checkpoint-dir D      mid-point checkpoint/restart for steady points:
//                           full simulation state saved per point key,
//                           resumed bit-identically after a crash/SIGINT
//   --checkpoint-interval C cycles between checkpoint refreshes
//                           (default: RunContext's)
//   --stop-after N  stop scheduling new points after N have started
//                   (deterministic interruption for resume tests)
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/orchestrator.hpp"
#include "core/spec.hpp"

namespace ofar::bench {

/// Result cache of ofar_run unless --cache-dir says otherwise.
inline constexpr const char* kDefaultCacheDir = ".ofar-cache";

struct BenchOptions {
  u32 h = 4;
  u64 seed = 1;
  RunParams run = ExperimentSpec{}.run;  ///< steady measurement windows
  std::string csv_dir = ".";
  /// How every point executes: thread budget, result cache, auditing,
  /// telemetry and tracing, checkpoints, interruption. Never part of
  /// cached point keys.
  OrchestratorOptions orch;
  /// --metrics-out: the telemetry file, opened by run_units() once the
  /// command line is accepted ("" = no telemetry).
  std::string metrics_out;

  /// The network and seed flags, the steady windows when `steady` (fig6
  /// and fig7 run their own protocol windows), and the execution flags.
  /// A flag not read here is left for reject_unknown(). Every flag
  /// defaults to its member's own default.
  static BenchOptions parse(const CommandLine& cli, bool steady = true) {
    BenchOptions o = parse_execution(cli);
    o.h = static_cast<u32>(cli.get_uint("h", o.h));
    o.seed = cli.get_uint("seed", o.seed);
    if (steady) {
      o.run.warmup = cli.get_uint("warmup", o.run.warmup);
      o.run.measure = cli.get_uint("measure", o.run.measure);
    }
    return o;
  }

  /// The execution flags only: a `--spec` run takes the experiment shape
  /// (h, seeds, windows) from its file.
  static BenchOptions parse_execution(const CommandLine& cli) {
    BenchOptions o;
    o.csv_dir = cli.get_string("csv-dir", o.csv_dir);
    OrchestratorOptions& oo = o.orch;
    oo.threads = static_cast<unsigned>(cli.get_uint("threads", oo.threads));
    oo.sim_threads =
        static_cast<unsigned>(cli.get_uint("sim-threads", oo.sim_threads));
    Instrumentation& in = oo.instrumentation;
    o.metrics_out = cli.get_string("metrics-out", o.metrics_out);
    in.metrics_interval = cli.get_uint("metrics-interval", in.metrics_interval);
    in.metrics_full = cli.get_flag("metrics-full");
    in.audit_interval = cli.get_uint("audit-interval", in.audit_interval);
    if (cli.get_flag("audit") && in.audit_interval == 0)
      in.audit_interval = 4'096;
    in.trace_out = cli.get_string("trace-out", in.trace_out);
    in.trace_sample =
        static_cast<u32>(cli.get_uint("trace-sample", in.trace_sample));
    oo.cache_dir = cli.get_string("cache-dir", kDefaultCacheDir);
    oo.checkpoint_dir = cli.get_string("checkpoint-dir", oo.checkpoint_dir);
    oo.checkpoint_interval =
        cli.get_uint("checkpoint-interval", oo.checkpoint_interval);
    oo.stop_after = static_cast<std::size_t>(
        cli.get_uint("stop-after", oo.stop_after));
    return o;
  }

  /// Baseline SimConfig for a mechanism, with the paper's default ring
  /// (default_ring; Fig. 8 overrides the ring kind explicitly).
  SimConfig config(RoutingKind routing) const {
    SimConfig cfg;
    cfg.h = h;
    cfg.seed = seed;
    cfg.routing = routing;
    cfg.ring = default_ring(routing);
    return cfg;
  }
};

/// Evenly spaced loads (lo, lo+step, ..., hi], overridable via
/// --min-load/--max-load/--points.
inline std::vector<double> load_grid(const CommandLine& cli, double lo,
                                     double hi, u32 points) {
  lo = cli.get_double("min-load", lo);
  hi = cli.get_double("max-load", hi);
  points = static_cast<u32>(cli.get_uint("points", points));
  return expand_load_grid(lo, hi, points);
}

/// Rejects unknown CLI keys with a readable message. Returns false on typo.
inline bool reject_unknown(const CommandLine& cli) {
  bool ok = true;
  for (const auto& key : cli.unused_keys()) {
    std::fprintf(stderr, "unknown option --%s\n", key.c_str());
    ok = false;
  }
  return ok;
}

}  // namespace ofar::bench
