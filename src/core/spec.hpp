// Declarative experiment specs (the orchestration layer's input language).
//
// An ExperimentSpec describes one figure-shaped experiment — a cross
// product of {mechanism} x {pattern or transition} x {load} x {seed} under
// one of the three measurement protocols of core/experiment.hpp — and
// expands into a flat list of RunPoints. Specs come from two places:
//
//   - JSON files (spec_from_file): the `ofar_run --spec` path,
//   - the preset table in bench/presets.cpp: the figure reproductions.
//
// Every RunPoint has a *canonical cache key*: a digest over a canonical
// text rendering of (schema version, protocol, full SimConfig, pattern
// components, protocol parameters, seed). The SimConfig part renders every
// field visit_fields (common/config.hpp) declares, in its order: the same
// list the JSON loader reads config members from and the checkpoint
// signature renders, so no field can reach one and miss another. A point
// holds nothing else but its display labels: how a point executes
// (instrumentation, threads, checkpoints) is a RunContext passed beside it
// (core/experiment.hpp), so it cannot reach the key. The key is what the
// orchestrator's result cache and resume journal are addressed by, so it
// must be stable across processes and platforms: doubles are rendered by
// append_double (common/json.hpp, shortest round trip), the one format of
// every double the journal and the other JSON writers write, and the hash
// is a fixed FNV-1a.
//
// Bump kSpecSchemaVersion whenever the meaning of a config field, a
// pattern, or a result struct changes — every cached result is invalidated
// at once, which is exactly what a semantics change requires.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/experiment.hpp"
#include "traffic/pattern.hpp"

namespace ofar {

class JsonValue;

/// Cache-key schema version (see file comment for the bump discipline).
/// v2: SimConfig::sim_shards joined the canonical config rendering.
/// v3: SimConfig::shard_group_major joined (group-aligned shard split).
inline constexpr u32 kSpecSchemaVersion = 3;

enum class RunKind : u8 { kSteady, kTransient, kBurst };
const char* to_string(RunKind kind) noexcept;
bool parse_run_kind(const std::string& text, RunKind& out) noexcept;

/// A traffic pattern plus the display name used in tables and labels.
struct NamedPattern {
  std::string name;  ///< "UN", "ADV+2", "MIX1", ...
  TrafficPattern pattern;
};

/// One curve of a figure: a labelled mechanism configuration. The seed
/// member of `cfg` is ignored — expansion overwrites it per point.
struct MechanismEntry {
  std::string label;
  SimConfig cfg;
};

/// One transient transition (Fig. 6 style): pattern A at load_a until the
/// switch cycle, then pattern B at load_b.
struct TransitionSpec {
  std::string name;  ///< "UN->ADV+2"
  NamedPattern a;
  NamedPattern b;
  double load_a = 0.0;
  double load_b = 0.0;
};

/// One expanded simulation point, self-contained and deterministic: the
/// orchestrator can run points in any order, on any thread, and rerunning a
/// point always reproduces the same result bit-for-bit. canonical_point
/// renders every member but the two labels (and, of the three protocol
/// parameter sets, only the one its kind runs).
struct RunPoint {
  RunKind kind = RunKind::kSteady;
  std::string mechanism;  ///< column label
  std::string case_name;  ///< pattern / workload / transition name
  u64 seed = 1;
  SimConfig cfg;  ///< seed already applied

  // Steady and burst use `pattern`; transient uses `pattern` (phase A,
  // at `load`) plus `pattern_b`/`load_b`.
  TrafficPattern pattern;
  TrafficPattern pattern_b;
  double load = 0.0;
  double load_b = 0.0;

  RunParams run;  ///< steady windows
  TransientParams transient;
  BurstParams burst;
};

/// Evenly spaced load grid (lo, ..., hi] with `points` samples — the same
/// arithmetic the figure benches have always used, centralised so spec
/// files using the grid form reproduce historical CSVs bit-for-bit.
std::vector<double> expand_load_grid(double lo, double hi, u32 points);

struct ExperimentSpec {
  std::string name = "experiment";  ///< CSV file prefix ("fig3", ...)
  std::string title;                ///< table heading
  RunKind kind = RunKind::kSteady;
  u32 h = 4;
  std::vector<u64> seeds = {1};
  std::vector<MechanismEntry> mechanisms;

  // Each kind's parameters default to the conventions of its figures,
  // for spec files and presets alike.

  // ---- steady (cross product patterns x loads; Figs. 2-5, 8, 9) ----
  std::vector<NamedPattern> patterns;
  std::vector<double> loads;
  RunParams run = RunParams::windows(5'000, 6'000);

  // ---- transient (Fig. 6) ----
  std::vector<TransitionSpec> transitions;
  TransientParams transient{.warmup = 20'000,
                            .horizon = 12'000,
                            .lead = 2'000,
                            .drain = 20'000,
                            .bucket = 500};

  // ---- burst (Fig. 7) ----
  std::vector<NamedPattern> workloads;
  BurstParams burst{.packets_per_node = 400, .max_cycles = 20'000'000};

  /// Flat point list in deterministic order: seeds, then cases, then
  /// loads, then mechanisms (innermost).
  std::vector<RunPoint> expand() const;

  /// Consistency check; returns an error message or empty string.
  std::string validate() const;
};

/// Canonical text rendering of everything that determines a point's result
/// (see file comment). This is what the cache key digests; it is also
/// human-readable on purpose, so key mismatches can be debugged by eye.
std::string canonical_point(const RunPoint& point);

/// 32-hex-digit content key: double-FNV-1a over canonical_point().
std::string point_key(const RunPoint& point);

/// The digest primitive behind point_key, shared with the orchestrator's
/// whole-run results digest: two independent FNV-1a 64 passes over `text`,
/// rendered as 32 hex digits. Stable across platforms and processes.
std::string content_digest(const std::string& text);

/// Canonical rendering of (schema version, full semantic SimConfig, seed):
/// everything a checkpoint must match to be restorable into a freshly
/// constructed Network. Same canonical config text as the cache keys, so
/// the two validation layers can never drift apart.
std::string config_signature(const SimConfig& cfg);

// ---- JSON spec loading ----

/// Builds a spec from a parsed JSON document. Every object in it (the
/// document, "config", each mechanism, "thresholds", a load grid, a mix
/// pattern and its entries, each transition) may hold only the members
/// its kind declares: an unknown one, a member of another spec kind
/// included, is an error naming it. SimConfig members are the fields
/// visit_fields (common/config.hpp) declares. On failure returns false and
/// fills `error` with a message qualified by the value's path
/// ("mechanisms[1]: unknown config key 'vcs_locl'").
bool spec_from_json(const JsonValue& doc, ExperimentSpec& out,
                    std::string& error);

/// json_parse_file + spec_from_json.
bool spec_from_file(const std::string& path, ExperimentSpec& out,
                    std::string& error);

}  // namespace ofar
