// Figure-preset registry: `ofar_run --preset NAME` runs any entry of this
// table (`ofar_run --list` prints them). A preset turns its CLI into one or
// more PresetUnits — ExperimentSpecs plus a renderer — and run_units()
// executes all units' points through the orchestrator in a single batch
// (shared cache, shared worker pool, one resume journal), then renders each
// unit's tables and CSVs.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/orchestrator.hpp"
#include "core/spec.hpp"

namespace ofar::bench {

struct PresetUnit {
  std::vector<ExperimentSpec> specs;
  /// Renderer over this unit's slice of outcomes (parallel to points()).
  /// Null selects the generic per-kind renderer of the unit's one spec,
  /// which reproduces the historical figure output bit-for-bit.
  std::function<void(const PresetUnit&, const std::vector<PointOutcome>&,
                     const BenchOptions&)>
      render;

  /// Every spec's expand(), concatenated in spec order.
  std::vector<RunPoint> points() const;
};

struct PresetRun {
  BenchOptions opts;
  std::string banner;  ///< printed before execution (newline-terminated)
  std::vector<PresetUnit> units;
};

struct Preset {
  const char* name;
  const char* summary;
  PresetRun (*make)(const CommandLine& cli);
};

const std::vector<Preset>& presets();
const Preset* find_preset(const std::string& name);

/// Executes all units' points in one orchestrator batch, stopping cleanly
/// on SIGINT, and renders each unit. Returns a process exit code: 0 on a
/// complete run, 130 when a stop condition interrupted the sweep (nothing
/// is rendered; rerun to resume).
int run_units(const PresetRun& run);

/// Entry point of `ofar_run --preset`: parses the CLI, builds the preset,
/// rejects any flag it did not read, runs it.
int run_preset_main(const std::string& name, int argc, char** argv);

/// Entry point of `ofar_run --spec`: loads the spec file, parses the
/// execution flags, rejects any other flag (the experiment shape comes from
/// the file), runs it.
int run_spec_main(const std::string& path, int argc, char** argv);

}  // namespace ofar::bench
