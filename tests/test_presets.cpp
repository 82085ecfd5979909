// Pins of every figure preset (bench/presets.cpp) as `ofar_run --preset`
// runs it: at tiny flags, its whole-run results digest, the CSV files it
// writes and a digest of their bytes; at its default flags, a digest of its
// sorted point keys (no simulation); and its rejection of an unknown flag,
// which leaves an existing --metrics-out file as it was.
// A refactor of the experiment layer must leave every pin unchanged. Also
// the flags a run would read and then ignore (the shape flags of a `--spec`
// run, fig6/fig7's steady windows), which are rejected, outputs that cannot
// be written, which stop a run before it starts, and `--cache-dir ""`,
// which turns the result cache off.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "presets.hpp"

namespace ofar::bench {
namespace {

namespace fs = std::filesystem;

/// Runs `ofar_run --preset NAME FLAGS...` (or `--spec NAME FLAGS...` when
/// `spec`) in-process; returns its exit code and what it printed.
int run_driver(const std::string& name, const std::vector<std::string>& flags,
               std::string* out, std::string* err, bool spec = false) {
  std::vector<std::string> args = {"ofar_run", spec ? "--spec" : "--preset",
                                   name};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int argc = static_cast<int>(argv.size());
  const int rc = spec ? run_spec_main(name, argc, argv.data())
                      : run_preset_main(name, argc, argv.data());
  *out = ::testing::internal::GetCapturedStdout();
  *err = ::testing::internal::GetCapturedStderr();
  return rc;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct TinyRun {
  const char* preset;
  std::vector<std::string> flags;
  const char* results_digest;
  std::vector<std::string> csvs;  ///< sorted file names
  const char* csv_digest;         ///< over names and bytes, in that order
};

const std::vector<TinyRun>& tiny_runs() {
  static const std::vector<std::string> steady = {
      "--h", "2", "--warmup", "200", "--measure", "300", "--points", "3"};
  static const std::vector<TinyRun> runs = {
      {"fig2",
       {"--h", "2", "--warmup", "200", "--measure", "300", "--max-offset",
        "4"},
       "c54263194b68d17c3ea7e287717d6f8d",
       {"fig2b_offset.csv"},
       "054719f5e46449528f2ce89e6df785f7"},
      {"fig3",
       steady,
       "645bc048dba53fbd372fbdf116436656",
       {"fig3_detail.csv", "fig3_latency.csv", "fig3_throughput.csv"},
       "faa8a7c59070cd96e0a01dd14ca98a13"},
      {"fig4",
       steady,
       "4c4af84f1ef89b45b658872cd1351dcc",
       {"fig4_detail.csv", "fig4_latency.csv", "fig4_throughput.csv"},
       "c2eb51dc492883c9a020c61987d1e970"},
      {"fig5",
       steady,
       "4c4af84f1ef89b45b658872cd1351dcc",
       {"fig5_detail.csv", "fig5_latency.csv", "fig5_throughput.csv"},
       "b9367afdeb823c90879033793dc3fea1"},
      {"fig6",
       {"--h", "2", "--switch-at", "600", "--horizon", "400", "--lead", "200",
        "--drain", "400", "--bucket", "100"},
       "23da620a589a8a5b155578d2233d3be6",
       {"fig6_ADV_2__ADV_h.csv", "fig6_ADV_2__UN.csv", "fig6_UN__ADV_2.csv"},
       "df4d6827bbbaf34bd65aa073ae4ffaea"},
      {"fig7",
       {"--h", "2", "--packets", "5"},
       "0a9944e07f8d39d1398fce4dcbefc53c",
       {"fig7_bursts.csv"},
       "2175975d16b1771d26bf503077c9cd7e"},
      {"fig8",
       steady,
       "cd3b84241a7f9617328bcc715b59d3ac",
       {"fig8_adv2_detail.csv", "fig8_adv2_latency.csv",
        "fig8_adv2_throughput.csv", "fig8_un_detail.csv",
        "fig8_un_latency.csv", "fig8_un_throughput.csv"},
       "9171051aa6b0db49ad04b9fe6641e09e"},
      {"fig9",
       {"--h", "2", "--warmup", "200", "--measure", "300", "--points", "2"},
       "3a6d64553c7417209ca96cb911ac72cf",
       {"fig9_reduced_vcs.csv"},
       "a8e6eb9bcd8241925d756b11e10609a9"},
      {"ablation_thresholds",
       {"--h", "2", "--warmup", "200", "--measure", "300"},
       "ebb22833a99051c77c27d6244b300304",
       {"ablation_factor.csv", "ablation_gap.csv",
        "ablation_policy_mode.csv"},
       "f94027eab837ca2adc5221e349e7c955"},
      {"ablation_congestion",
       {"--h", "2", "--warmup", "200", "--measure", "300"},
       "404470e776f686d848bb8942b3fdc111",
       {"ablation_congestion.csv"},
       "2ae397a4cae843eaac36c9b338ed4599"},
      {"ablation_rings",
       {"--h", "2", "--warmup", "200", "--measure", "300"},
       "a7042a08a30e407154823cd7094d7a2c",
       {"ablation_rings_perf.csv", "ablation_rings_topology.csv"},
       "c2f17690052d2b1ccb13cc7488d3ef63"},
  };
  return runs;
}

TEST(Presets, TinyRunsArePinned) {
  ASSERT_EQ(tiny_runs().size(), presets().size());
  for (const TinyRun& pin : tiny_runs()) {
    SCOPED_TRACE(pin.preset);
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("ofar_presets_" +
                                          std::string(pin.preset));
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::vector<std::string> flags = pin.flags;
    for (const char* f : {"--cache-dir", "", "--threads", "2", "--csv-dir"})
      flags.push_back(f);
    flags.push_back(dir.string());

    std::string out, err;
    ASSERT_EQ(run_driver(pin.preset, flags, &out, &err), 0) << err;
    const std::string tag = "results digest: ";
    const std::size_t at = out.find(tag);
    ASSERT_NE(at, std::string::npos) << out;
    EXPECT_EQ(out.substr(at + tag.size(), 32), pin.results_digest);

    std::vector<std::string> names;
    for (const auto& e : fs::directory_iterator(dir))
      names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, pin.csvs);
    std::string all;
    for (const std::string& name : names)
      all += name + '\n' + read_file(dir / name) + '\n';
    EXPECT_EQ(content_digest(all), pin.csv_digest);
    fs::remove_all(dir);
  }
}

TEST(Presets, DefaultPointKeysArePinned) {
  const std::vector<std::pair<const char*, const char*>> pins = {
      {"fig2", "464324f3e166a846ff5d3e364e5a5d57"},
      {"fig3", "bb5b2dec7aa4b3b34b36b20b551f00ba"},
      {"fig4", "721690bc55987ce7c4eb14c6423e00b2"},
      {"fig5", "e5260ffbd6239a777ab1801af534ac7a"},
      {"fig6", "d10d5a0df13fce9e4e4993f7041b68b1"},
      {"fig7", "2037cbb0c69264fd0a2db646cb1a8488"},
      {"fig8", "57b6f09c8f8b1b0ec856fe5da4b56b67"},
      {"fig9", "aa418102a303dc965a2107ea690158ff"},
      {"ablation_thresholds", "dd2b14c67a2a7b7db90f91fc510c9e94"},
      {"ablation_congestion", "3613bf87f652e917361b07c2caf330c6"},
      {"ablation_rings", "e77e28004cf86d4a00ee872d16eeb485"},
  };
  ASSERT_EQ(pins.size(), presets().size());
  for (const auto& [name, digest] : pins) {
    SCOPED_TRACE(name);
    const Preset* preset = find_preset(name);
    ASSERT_NE(preset, nullptr);
    const char* argv[] = {"ofar_run"};
    const CommandLine cli(1, argv);
    std::vector<std::string> keys;
    for (const PresetUnit& unit : preset->make(cli).units)
      for (const RunPoint& p : unit.points()) keys.push_back(point_key(p));
    std::sort(keys.begin(), keys.end());
    std::string all;
    for (const std::string& k : keys) all += k + '\n';
    EXPECT_EQ(content_digest(all), digest) << keys.size() << " points";
  }
}

/// An existing --metrics-out file that a rejected command line must leave
/// byte-identical: no output is opened before the flags are accepted. Each
/// test gets its own file, since ctest runs tests in parallel processes.
struct MetricsFile {
  fs::path path =
      fs::path(::testing::TempDir()) /
      (std::string("ofar_presets_metrics_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  const std::string bytes = "kept\n";
  MetricsFile() { std::ofstream(path, std::ios::binary) << bytes; }
  ~MetricsFile() { fs::remove(path); }
  bool intact() const { return read_file(path) == bytes; }
};

TEST(Presets, EveryPresetRejectsAnUnknownFlag) {
  const MetricsFile metrics;
  for (const Preset& preset : presets()) {
    SCOPED_TRACE(preset.name);
    std::string out, err;
    EXPECT_EQ(run_driver(preset.name,
                         {"--metrics-out", metrics.path.string(), "--bogus",
                          "1"},
                         &out, &err),
              1);
    EXPECT_NE(err.find("unknown option --bogus"), std::string::npos) << err;
    EXPECT_TRUE(metrics.intact());
  }
}

// A flag a run does not use is an unknown option, not a silent no-op: a
// spec run takes h, seed and windows from its file, fig6 and fig7 run
// their own protocol windows, --no-cache is spelled --cache-dir "", and the
// tracer writes no link series (--metrics-full has the per-link records).
TEST(Presets, FlagsARunWouldIgnoreAreRejected) {
  const std::string smoke = std::string(OFAR_EXAMPLES_DIR) + "/smoke.json";
  const MetricsFile metrics;
  for (const char* flag :
       {"h", "seed", "warmup", "measure", "no-cache", "trace-links"}) {
    SCOPED_TRACE(flag);
    std::string out, err;
    EXPECT_EQ(run_driver(smoke,
                         {"--cache-dir", "", "--csv-dir", "", "--metrics-out",
                          metrics.path.string(), std::string("--") + flag,
                          "4"},
                         &out, &err, /*spec=*/true),
              1);
    EXPECT_NE(err.find(std::string("unknown option --") + flag),
              std::string::npos)
        << err;
    EXPECT_TRUE(metrics.intact());
  }
  for (const char* preset : {"fig6", "fig7"})
    for (const char* flag : {"warmup", "measure"}) {
      SCOPED_TRACE(std::string(preset) + " --" + flag);
      std::string out, err;
      EXPECT_EQ(run_driver(preset, {"--h", "2", std::string("--") + flag, "3"},
                           &out, &err),
                1);
      EXPECT_NE(err.find(std::string("unknown option --") + flag),
                std::string::npos)
          << err;
    }
  std::string out, err;
  EXPECT_EQ(run_driver("fig3", {"--no-cache"}, &out, &err), 1);
  EXPECT_NE(err.find("unknown option --no-cache"), std::string::npos) << err;
}

// An output that cannot be written stops the run before its banner: a
// --trace-out whose directory does not exist, a --metrics-out that cannot
// be opened, or a --csv-dir that is not a directory exits 1 naming the
// path, as an unknown flag does, for a spec run and for a preset alike.
TEST(Presets, UnwritableOutputsAreRejected) {
  const fs::path missing =
      fs::path(::testing::TempDir()) / "ofar_presets_missing";
  fs::remove_all(missing);
  const std::string path = (missing / "out.json").string();
  const std::string trace_smoke =
      std::string(OFAR_EXAMPLES_DIR) + "/trace_smoke.json";
  const auto fig3 = std::find_if(
      tiny_runs().begin(), tiny_runs().end(),
      [](const TinyRun& r) { return std::string(r.preset) == "fig3"; });
  ASSERT_NE(fig3, tiny_runs().end());
  for (const char* flag : {"--trace-out", "--metrics-out", "--csv-dir"}) {
    // --csv-dir names the missing directory itself; the other two name a
    // file in it and run with CSV output off.
    const bool csv = std::string(flag) == "--csv-dir";
    const std::string named = csv ? missing.string() : path;
    std::vector<std::string> bad = {"--cache-dir", ""};
    if (!csv) bad.insert(bad.end(), {"--csv-dir", ""});
    bad.insert(bad.end(), {flag, named});
    std::vector<std::string> preset_flags = fig3->flags;
    preset_flags.insert(preset_flags.end(), bad.begin(), bad.end());
    for (const bool spec : {true, false}) {
      SCOPED_TRACE(std::string(flag) + (spec ? " on a spec" : " on fig3"));
      std::string out, err;
      EXPECT_EQ(spec ? run_driver(trace_smoke, bad, &out, &err, /*spec=*/true)
                     : run_driver("fig3", preset_flags, &out, &err),
                1);
      EXPECT_NE(err.find("error: cannot write " + named), std::string::npos)
          << err;
      EXPECT_EQ(out, "");
    }
  }
  EXPECT_FALSE(fs::exists(missing));
}

// --cache-dir "" runs without a cache: beside a warm .ofar-cache (the
// default cache) it serves nothing from it, executes every point, and
// neither creates a cache directory nor writes to the existing one.
TEST(Presets, EmptyCacheDirTurnsCachingOff) {
  const fs::path dir = fs::path(::testing::TempDir()) / "ofar_presets_nocache";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path cwd = fs::current_path();
  fs::current_path(dir);
  const std::vector<std::string> tiny = {"--h", "2", "--packets", "5",
                                         "--csv-dir", ""};
  auto listing = [&] {
    std::vector<std::string> names;
    for (const auto& e : fs::recursive_directory_iterator(dir))
      names.push_back(e.path().string() + " " +
                      (e.is_regular_file() ? std::to_string(e.file_size())
                                           : "dir"));
    std::sort(names.begin(), names.end());
    return names;
  };
  std::vector<std::string> off = tiny;
  off.insert(off.end(), {"--cache-dir", ""});
  std::string cold, warm, uncached, err;
  ASSERT_EQ(run_driver("fig7", off, &cold, &err), 0) << err;
  EXPECT_TRUE(listing().empty());

  ASSERT_EQ(run_driver("fig7", tiny, &warm, &err), 0) << err;
  ASSERT_TRUE(fs::exists(dir / kDefaultCacheDir / "journal.jsonl"));
  const std::vector<std::string> before = listing();
  ASSERT_EQ(run_driver("fig7", off, &uncached, &err), 0) << err;
  EXPECT_EQ(listing(), before);
  fs::current_path(cwd);
  fs::remove_all(dir);

  const std::string summary = "summary: points=18 hits=0 executed=18";
  ASSERT_NE(cold.find(summary), std::string::npos) << cold;
  ASSERT_NE(uncached.find(summary), std::string::npos) << uncached;
  const std::string tag = "results digest: ";
  EXPECT_EQ(uncached.substr(uncached.find(tag)), cold.substr(cold.find(tag)));
}

}  // namespace
}  // namespace ofar::bench
