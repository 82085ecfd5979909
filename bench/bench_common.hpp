// Shared scaffolding for the figure-reproduction benches: common CLI
// options (network scale, measurement windows, CSV output, thread count,
// result cache) and the load-grid helper. The figure logic itself lives in
// presets.cpp, run by `ofar_run --preset NAME`.
//
// Every preset accepts:
//   --h N           network radix (paper: 6; default 4 — see EXPERIMENTS.md)
//   --seed S        RNG seed
//   --warmup C      warm-up cycles before the measurement window
//   --measure C     measurement window width
//   --csv-dir D     directory for CSV dumps ("" disables)
//   --threads T     total thread budget (0 = hardware concurrency)
//   --sim-threads N worker threads inside each simulation (sharded cycle
//                   kernel; 0 = auto split of the --threads budget).
//                   Effective only when the config runs sim_shards > 1.
//   --metrics-out F       stream telemetry records to F (.jsonl or .csv)
//   --metrics-interval C  cycles between interval snapshots (default 1000)
//   --metrics-full        also dump per-channel / per-VC records
//   --audit               run the invariant auditor every 4096 cycles
//   --audit-interval C    audit every C cycles (implies --audit)
//   --trace-out F     packet-journey Chrome trace JSON (chrome://tracing /
//                     ui.perfetto.dev); per-point file names when the run
//                     executes more than one point
//   --trace-links F   per-link utilisation / credit-stall series (.csv or
//                     JSONL by extension)
//   --trace-sample N  trace 1 in N packets (default 64; 1 traces all)
//   --cache-dir D   content-addressed result cache + resume journal
//                   (default .ofar-cache)
//   --no-cache      force caching off even where a default cache applies
//   --checkpoint-dir D      mid-point checkpoint/restart for steady points:
//                           full simulation state saved per point key,
//                           resumed bit-identically after a crash/SIGINT
//   --checkpoint-interval C cycles between checkpoint refreshes
//                           (default 100000)
//   --stop-after N  stop scheduling new points after N have started
//                   (deterministic interruption for resume tests)
#pragma once

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/spec.hpp"
#include "stats/sink.hpp"

namespace ofar::bench {

struct BenchOptions {
  u32 h = 4;
  u64 seed = 1;
  RunParams run;  ///< steady measurement windows (warmup/measure only)
  std::string csv_dir;
  unsigned threads = 0;
  unsigned sim_threads = 0;  ///< intra-sim workers (0 = auto; see above)

  // Telemetry sink shared by every simulation this bench runs (thread-safe;
  // parallel sweep points interleave whole records). Null when --metrics-out
  // was not given. The orchestrator labels each record "<case>|<mechanism>".
  std::shared_ptr<MetricsSink> metrics;
  Cycle metrics_interval = 1'000;
  bool metrics_full = false;

  // Invariant-audit period (0 = off), applied to every executed point.
  Cycle audit_interval = 0;

  // Packet tracing (src/trace, DESIGN.md §11), applied to every executed
  // point. Instrumentation only: never part of cached point keys.
  std::string trace_out;    ///< "" = journey tracing off
  std::string trace_links;  ///< "" = link series off
  u32 trace_sample = 64;    ///< 1-in-N deterministic packet sampling

  // Orchestrator knobs: every bench executes through run_points() now.
  std::string cache_dir;  ///< "" = caching off (unless a default applies)
  bool no_cache = false;  ///< --no-cache wins over any default cache dir
  std::string checkpoint_dir;      ///< "" = mid-point checkpointing off
  Cycle checkpoint_interval = 100'000;
  std::size_t stop_after = 0;
  const std::atomic<bool>* stop_flag = nullptr;  ///< SIGINT, set by runner

  static BenchOptions parse(const CommandLine& cli, Cycle warmup_default,
                            Cycle measure_default) {
    BenchOptions o;
    o.h = static_cast<u32>(cli.get_uint("h", 4));
    o.seed = cli.get_uint("seed", 1);
    o.run.warmup = cli.get_uint("warmup", warmup_default);
    o.run.measure = cli.get_uint("measure", measure_default);
    o.csv_dir = cli.get_string("csv-dir", ".");
    o.threads = static_cast<unsigned>(cli.get_uint("threads", 0));
    o.sim_threads = static_cast<unsigned>(cli.get_uint("sim-threads", 0));
    const std::string metrics_out = cli.get_string("metrics-out", "");
    o.metrics_interval = cli.get_uint("metrics-interval", 1'000);
    o.metrics_full = cli.get_flag("metrics-full");
    if (!metrics_out.empty()) {
      o.metrics = MetricsSink::open(metrics_out);
      if (o.metrics == nullptr)
        std::fprintf(stderr, "warning: could not open %s; telemetry disabled\n",
                     metrics_out.c_str());
    }
    o.audit_interval = cli.get_uint("audit-interval", 0);
    if (cli.get_flag("audit") && o.audit_interval == 0)
      o.audit_interval = 4'096;
    o.trace_out = cli.get_string("trace-out", "");
    o.trace_links = cli.get_string("trace-links", "");
    o.trace_sample = static_cast<u32>(cli.get_uint("trace-sample", 64));
    o.cache_dir = cli.get_string("cache-dir", "");
    o.no_cache = cli.get_flag("no-cache");
    o.checkpoint_dir = cli.get_string("checkpoint-dir", "");
    o.checkpoint_interval = cli.get_uint("checkpoint-interval", 100'000);
    o.stop_after = static_cast<std::size_t>(cli.get_uint("stop-after", 0));
    return o;
  }

  /// Baseline SimConfig for a mechanism: VC-ordered mechanisms get no ring,
  /// OFAR variants get the physical ring (the paper's default evaluation
  /// setup; Fig. 8 overrides the ring kind explicitly).
  SimConfig config(RoutingKind routing) const {
    SimConfig cfg;
    cfg.h = h;
    cfg.seed = seed;
    cfg.routing = routing;
    cfg.ring = cfg.vc_ordered() ? RingKind::kNone : RingKind::kPhysical;
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
