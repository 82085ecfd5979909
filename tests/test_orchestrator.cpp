// Tests for the experiment orchestrator (core/orchestrator.*): cache hits
// must be bit-identical to cold runs, interrupted sweeps must resume to the
// same whole-run digest, corrupt journal lines must be skipped rather than
// fatal, and the digest must be invariant to thread count and execution
// order.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/orchestrator.hpp"
#include "core/spec.hpp"
#include "traffic/pattern.hpp"

namespace ofar {
namespace {

/// RAII scratch directory under the test's working directory.
struct TempDir {
  explicit TempDir(const std::string& name) : path(name) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

/// Small steady sweep: 2 mechanisms x 2 loads on the h=2 network with tiny
/// measurement windows — enough structure to exercise every cache path
/// while keeping each point a few milliseconds.
std::vector<RunPoint> steady_points() {
  ExperimentSpec spec;
  spec.name = "t";
  spec.h = 2;
  spec.seeds = {1};
  spec.run = RunParams::windows(50, 80);
  spec.loads = {0.1, 0.2};
  spec.patterns = {{"UN", TrafficPattern::uniform()}};
  SimConfig min_cfg;
  min_cfg.h = 2;
  min_cfg.routing = RoutingKind::kMin;
  SimConfig ofar_cfg;
  ofar_cfg.h = 2;
  ofar_cfg.routing = RoutingKind::kOfar;
  ofar_cfg.ring = RingKind::kPhysical;
  spec.mechanisms = {{"MIN", min_cfg}, {"OFAR", ofar_cfg}};
  return spec.expand();
}

void expect_bit_identical(const SteadyResult& a, const SteadyResult& b) {
  EXPECT_EQ(a.offered_load, b.offered_load);
  EXPECT_EQ(a.accepted_load, b.accepted_load);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.stddev_latency, b.stddev_latency);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.local_misroutes, b.local_misroutes);
  EXPECT_EQ(a.global_misroutes, b.global_misroutes);
  EXPECT_EQ(a.ring_entries, b.ring_entries);
  EXPECT_EQ(a.stalled_packets, b.stalled_packets);
  EXPECT_EQ(a.worst_stall, b.worst_stall);
  EXPECT_EQ(a.mean_hops, b.mean_hops);
}

TEST(Orchestrator, CacheHitIsBitIdenticalToColdRun) {
  TempDir dir("test_orch_cache_hit");
  const std::vector<RunPoint> points = steady_points();
  OrchestratorOptions opts;
  opts.cache_dir = dir.path;

  const RunReport cold = run_points(points, opts);
  EXPECT_EQ(cold.executed, points.size());
  EXPECT_EQ(cold.hits, 0u);
  ASSERT_TRUE(cold.complete());

  const RunReport warm = run_points(points, opts);
  EXPECT_EQ(warm.executed, 0u);  // zero simulations on a full cache
  EXPECT_EQ(warm.hits, points.size());
  ASSERT_TRUE(warm.complete());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(warm.outcomes[i].from_cache);
    EXPECT_EQ(warm.outcomes[i].key, cold.outcomes[i].key);
    expect_bit_identical(warm.outcomes[i].steady, cold.outcomes[i].steady);
  }
  EXPECT_EQ(results_digest(points, warm), results_digest(points, cold));
}

TEST(Orchestrator, NoCacheDirDisablesCaching) {
  const std::vector<RunPoint> points = steady_points();
  OrchestratorOptions opts;  // cache_dir empty
  const RunReport a = run_points(points, opts);
  const RunReport b = run_points(points, opts);
  EXPECT_TRUE(a.journal_path.empty());
  EXPECT_EQ(a.executed, points.size());
  EXPECT_EQ(b.executed, points.size());  // nothing was cached
  EXPECT_EQ(results_digest(points, a), results_digest(points, b));
}

TEST(Orchestrator, ResumeAfterInterruptionMatchesCleanDigest) {
  const std::vector<RunPoint> points = steady_points();

  OrchestratorOptions clean_opts;
  const std::string clean_digest =
      results_digest(points, run_points(points, clean_opts));

  TempDir dir("test_orch_resume");
  OrchestratorOptions opts;
  opts.cache_dir = dir.path;
  opts.stop_after = 2;  // deterministic interruption after 2 points start
  const RunReport partial = run_points(points, opts);
  EXPECT_TRUE(partial.interrupted);
  EXPECT_FALSE(partial.complete());
  EXPECT_EQ(partial.executed, 2u);
  EXPECT_EQ(partial.missing, points.size() - 2);

  opts.stop_after = 0;  // rerun the same sweep: resume from the journal
  const RunReport resumed = run_points(points, opts);
  ASSERT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.hits, 2u);
  EXPECT_EQ(resumed.executed, points.size() - 2);
  EXPECT_EQ(results_digest(points, resumed), clean_digest);
}

TEST(Orchestrator, StopFlagInterruptsBeforeStartingPoints) {
  const std::vector<RunPoint> points = steady_points();
  std::atomic<bool> stop{true};  // raised before the sweep begins
  OrchestratorOptions opts;
  opts.stop_flag = &stop;
  const RunReport report = run_points(points, opts);
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.executed, 0u);
  EXPECT_EQ(report.missing, points.size());
}

TEST(Orchestrator, CorruptJournalLinesAreSkippedNotFatal) {
  TempDir dir("test_orch_corrupt");
  const std::vector<RunPoint> points = steady_points();
  OrchestratorOptions opts;
  opts.cache_dir = dir.path;
  const RunReport cold = run_points(points, opts);
  ASSERT_TRUE(cold.complete());

  // Vandalise the journal: garbage text, nesting past the parser's depth
  // limit, a wrong-version line, and a truncated final line (the tail a
  // crash mid-append would leave).
  const std::string journal = dir.path + "/journal.jsonl";
  {
    std::ofstream f(journal, std::ios::app);
    f << "this is not json\n";
    f << std::string(1'000'000, '[') << "\n";
    f << "{\"v\":999,\"key\":\"00000000000000000000000000000000\","
         "\"kind\":\"steady\",\"result\":{}}\n";
    f << "{\"v\":1,\"key\":\"11112222";  // no newline: in-flight write
  }
  const RunReport warm = run_points(points, opts);
  ASSERT_TRUE(warm.complete());
  EXPECT_EQ(warm.hits, points.size());  // valid lines all survived
  EXPECT_EQ(warm.executed, 0u);
  EXPECT_EQ(results_digest(points, warm), results_digest(points, cold));
}

TEST(Orchestrator, DamagedEntryReExecutesJustThatPoint) {
  TempDir dir("test_orch_damaged");
  const std::vector<RunPoint> points = steady_points();
  OrchestratorOptions opts;
  opts.cache_dir = dir.path;
  const RunReport cold = run_points(points, opts);
  ASSERT_TRUE(cold.complete());

  // Corrupt exactly one cached entry by breaking its key in place.
  const std::string journal = dir.path + "/journal.jsonl";
  std::ifstream in(journal);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const std::string needle = "\"key\":\"" + cold.outcomes[0].key + "\"";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  text[at + 8] = text[at + 8] == 'f' ? '0' : 'f';
  {
    std::ofstream out(journal, std::ios::trunc);
    out << text;
  }

  const RunReport warm = run_points(points, opts);
  ASSERT_TRUE(warm.complete());
  EXPECT_EQ(warm.hits, points.size() - 1);
  EXPECT_EQ(warm.executed, 1u);
  EXPECT_EQ(results_digest(points, warm), results_digest(points, cold));
}

TEST(Orchestrator, TransientAndBurstResultsRoundTripThroughJournal) {
  ExperimentSpec spec;
  spec.name = "tb";
  spec.h = 2;
  spec.seeds = {1};
  SimConfig cfg;
  cfg.h = 2;
  cfg.routing = RoutingKind::kOfar;
  cfg.ring = RingKind::kPhysical;
  spec.mechanisms = {{"OFAR", cfg}};

  spec.kind = RunKind::kTransient;
  spec.transient.warmup = 200;
  spec.transient.horizon = 150;
  spec.transient.lead = 50;
  spec.transient.drain = 500;
  spec.transient.bucket = 50;
  spec.transitions = {{"UN->ADV+2",
                       {"UN", TrafficPattern::uniform()},
                       {"ADV+2", TrafficPattern::adversarial(2)},
                       0.1,
                       0.1}};
  const std::vector<RunPoint> tpoints = spec.expand();

  spec.kind = RunKind::kBurst;
  spec.burst.packets_per_node = 5;
  spec.burst.max_cycles = 200'000;
  spec.workloads = {{"UN", TrafficPattern::uniform()}};
  const std::vector<RunPoint> bpoints = spec.expand();

  TempDir dir("test_orch_kinds");
  OrchestratorOptions opts;
  opts.cache_dir = dir.path;
  std::vector<RunPoint> all = tpoints;
  all.insert(all.end(), bpoints.begin(), bpoints.end());

  const RunReport cold = run_points(all, opts);
  ASSERT_TRUE(cold.complete());
  const RunReport warm = run_points(all, opts);
  ASSERT_TRUE(warm.complete());
  EXPECT_EQ(warm.executed, 0u);

  const TransientResult& tc = cold.outcomes[0].transient;
  const TransientResult& tw = warm.outcomes[0].transient;
  ASSERT_EQ(tc.series.size(), tw.series.size());
  ASSERT_FALSE(tc.series.empty());
  for (std::size_t i = 0; i < tc.series.size(); ++i) {
    EXPECT_EQ(tc.series[i].cycle_rel, tw.series[i].cycle_rel);
    EXPECT_EQ(tc.series[i].mean_latency, tw.series[i].mean_latency);
    EXPECT_EQ(tc.series[i].packets, tw.series[i].packets);
  }
  const BurstResult& bc = cold.outcomes[1].burst;
  const BurstResult& bw = warm.outcomes[1].burst;
  EXPECT_EQ(bc.completion, bw.completion);
  EXPECT_EQ(bc.delivered_packets, bw.delivered_packets);
  EXPECT_EQ(bc.avg_latency, bw.avg_latency);
  EXPECT_EQ(bc.ring_entries, bw.ring_entries);
  EXPECT_EQ(bc.completed, bw.completed);
}

TEST(Orchestrator, DigestInvariantToThreadCount) {
  const std::vector<RunPoint> points = steady_points();
  OrchestratorOptions one;
  one.threads = 1;
  OrchestratorOptions many;
  many.threads = 4;
  EXPECT_EQ(results_digest(points, run_points(points, one)),
            results_digest(points, run_points(points, many)));
}

TEST(Orchestrator, JournalLineRoundTripsAwkwardDoublesExactly) {
  RunPoint point;
  point.kind = RunKind::kSteady;
  PointOutcome out;
  out.key = std::string(32, 'a');
  out.done = true;
  out.steady.offered_load = 1.0 / 3.0;
  out.steady.accepted_load = 1e-17;
  out.steady.avg_latency = 123456.789012345;
  out.steady.stddev_latency = 0.1;
  out.steady.delivered_packets = 42;
  out.steady.mean_hops = 2.0000000000000004;

  const std::string line = journal_line(point, out);
  std::string key, error;
  RunKind kind = RunKind::kBurst;
  PointOutcome back;
  ASSERT_TRUE(parse_journal_line(line, key, kind, back, error)) << error;
  EXPECT_EQ(key, out.key);
  EXPECT_EQ(kind, RunKind::kSteady);
  EXPECT_TRUE(back.from_cache);
  expect_bit_identical(back.steady, out.steady);
}

}  // namespace
}  // namespace ofar
