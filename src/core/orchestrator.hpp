// Experiment orchestrator: executes a flat list of RunPoints (core/spec.hpp)
// across worker threads with a content-addressed result cache and a
// crash-safe resume journal.
//
//  - Scheduling: points are pulled from a shared atomic counter by the
//    common/parallel worker pool (work stealing in the only sense an
//    embarrassingly parallel sweep needs). Each point is an independent
//    simulation with deterministic per-point seeding, so execution order
//    and thread count never change any result.
//  - Caching: a point's result is stored under its canonical content key
//    (point_key). Rerunning a spec whose points are all cached executes
//    zero simulations and just re-emits tables.
//  - Journal/resume: results append to <cache_dir>/journal.jsonl, one
//    flushed line per completed point. SIGINT or a crash mid-sweep loses at
//    most the in-flight points; rerunning the same spec resumes from the
//    journal. Corrupt or truncated lines (the crash tail) are skipped with
//    a warning, never fatal.
//
// The orchestrator owns no output formatting: renderers (bench/presets.cpp,
// ofar_run) turn a RunReport back into tables.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "core/spec.hpp"

namespace ofar {

struct OrchestratorOptions {
  /// Directory for the result cache + journal; "" disables caching (every
  /// point executes). Created if missing.
  std::string cache_dir;
  unsigned threads = 0;  ///< total thread budget (0 = hardware concurrency)

  /// Worker threads per simulation (the sharded cycle kernel's
  /// Network::set_sim_threads). The total budget `threads` is split between
  /// point-level parallelism (outer) and intra-simulation parallelism
  /// (inner = sim_threads); outer * inner never exceeds the budget.
  ///  - 0 (auto): prefer the outer level — outer = min(budget, points to
  ///    run), inner = budget / outer. With fewer points than budget the
  ///    spare threads flow into each simulation instead of idling.
  ///  - N >= 1: force inner = min(N, budget), outer = budget / inner.
  /// Execution-only either way: results and cache keys are unchanged by
  /// any split (see DESIGN.md §10).
  unsigned sim_threads = 0;

  // Each *executed* point runs under a RunContext (core/experiment.hpp)
  // built from these settings, labelled "<case>|<mechanism>" (cache hits
  // ran without instrumentation, which is equivalent: both are
  // result-invariant). When the run executes more than one point, the
  // trace path gets a per-point label + seed tag so parallel points never
  // overwrite each other's file; a single executed point writes it
  // verbatim.
  Instrumentation instrumentation;

  // Mid-point checkpoint/restart (core/checkpoint.hpp) for steady points:
  // each executing point snapshots its full simulation state to
  // <checkpoint_dir>/<point key>.ckpt every checkpoint_interval cycles and
  // resumes from it after a crash or SIGINT — complementing the journal,
  // which only resumes at completed-point granularity. The file is deleted
  // when the point completes. "" disables. Result-invariant: a resumed
  // point is bit-identical to an uninterrupted one.
  std::string checkpoint_dir;
  Cycle checkpoint_interval = RunContext{}.checkpoint_interval;

  /// Cooperative stop (e.g. SIGINT): checked before each point starts;
  /// in-flight points finish and journal, the rest stay missing.
  const std::atomic<bool>* stop_flag = nullptr;
  /// Stop scheduling new points once this many have *started* executing
  /// (0 = no limit). Deterministic interruption for tests and CI.
  std::size_t stop_after = 0;
};

/// Result slot for one point. Exactly one of steady/transient/burst is
/// meaningful, selected by the point's kind.
struct PointOutcome {
  bool done = false;  ///< result available (from cache or executed)
  bool from_cache = false;
  std::string key;  ///< canonical content key (32 hex digits)
  SteadyResult steady;
  TransientResult transient;
  BurstResult burst;
};

struct RunReport {
  std::vector<PointOutcome> outcomes;  ///< parallel to the input points
  std::size_t hits = 0;      ///< served from the cache
  std::size_t executed = 0;  ///< simulated by this run
  std::size_t missing = 0;   ///< never started (stop flag / stop_after)
  bool interrupted = false;  ///< a stop condition fired
  std::string journal_path;  ///< "" when caching is disabled

  bool complete() const noexcept { return missing == 0; }
};

/// Runs every point, consulting and updating the cache. Thread-safe with
/// respect to itself only through distinct cache_dirs; two concurrent
/// orchestrators sharing a journal are not supported.
RunReport run_points(const std::vector<RunPoint>& points,
                     const OrchestratorOptions& opts);

/// One journal line for a completed point: {"v":..,"key":..,"kind":..,
/// "result":{...}} with doubles in shortest round-trip form, so a parsed
/// result is bit-identical to the one that was written.
std::string journal_line(const RunPoint& point, const PointOutcome& outcome);

/// Parses one journal line. Returns false (with a reason) on any
/// malformed, truncated or version-mismatched line.
bool parse_journal_line(const std::string& line, std::string& key,
                        RunKind& kind, PointOutcome& outcome,
                        std::string& error);

/// Order-insensitive digest over the (key -> result) set of a report's
/// completed points: two runs of the same spec — cold, cached, resumed,
/// any thread count — produce the same digest. 32 hex digits.
std::string results_digest(const std::vector<RunPoint>& points,
                           const RunReport& report);

}  // namespace ofar
