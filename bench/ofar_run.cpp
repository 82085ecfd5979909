// ofar_run: the unified experiment driver. One binary runs any figure
// preset or any declarative JSON spec through the orchestrator — with the
// content-addressed result cache ON by default (.ofar-cache), so rerunning
// an experiment whose points are all cached executes zero simulations, and
// an interrupted sweep (SIGINT, crash, --stop-after) resumes from the
// journal on the next invocation.
//
//   ofar_run --spec examples/fig3.json       run a JSON spec
//   ofar_run --preset fig3                   run a registered preset
//   ofar_run --list                          list presets
//
// Shared flags (see bench_common.hpp): --csv-dir, --threads, --sim-threads,
// --cache-dir, --stop-after, --metrics-*, --audit*, --trace-*.
// Preset runs additionally accept the preset's historical flags (--h,
// --seed, --warmup, ...); spec runs take the experiment shape from the
// JSON file instead and reject those flags.
#include <cstdio>

#include "presets.hpp"

namespace {

void usage() {
  std::printf(
      "usage:\n"
      "  ofar_run --spec FILE   [--csv-dir D] [--threads T] [--sim-threads N]\n"
      "                         [--cache-dir D] [--stop-after N]\n"
      "                         [--metrics-out F] [--metrics-full]\n"
      "                         [--trace-out F] [--trace-sample N]\n"
      "  ofar_run --preset NAME [preset flags...]\n"
      "  ofar_run --list\n"
      "\n"
      "The result cache defaults to %s (--cache-dir \"\" turns it off);\n"
      "identical points are served from the journal without simulating.\n"
      "Interrupted runs (SIGINT or --stop-after) resume on the next\n"
      "identical invocation.\n",
      ofar::bench::kDefaultCacheDir);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ofar;
  using namespace ofar::bench;
  CommandLine cli(argc, argv);

  if (cli.get_flag("help")) {
    usage();
    return 0;
  }
  if (cli.get_flag("list")) {
    std::printf("presets:\n");
    for (const auto& p : presets())
      std::printf("  %-22s %s\n", p.name, p.summary);
    std::printf("or run a declarative spec with --spec FILE "
                "(see examples/*.json)\n");
    return 0;
  }

  const std::string preset = cli.get_string("preset", "");
  const std::string spec_path = cli.get_string("spec", "");
  if (!preset.empty() && !spec_path.empty()) {
    std::fprintf(stderr, "error: --preset and --spec are exclusive\n");
    return 1;
  }
  if (!preset.empty()) return run_preset_main(preset, argc, argv);
  if (spec_path.empty()) {
    usage();
    return 1;
  }
  return run_spec_main(spec_path, argc, argv);
}
