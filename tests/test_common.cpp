// Unit tests for src/common: RNG determinism and distribution sanity, CLI
// parsing, table formatting/CSV, config validation, parallel runner, and the
// check.hpp invariant macros (abort paths via subprocess death tests).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

namespace ofar {
namespace {

// ---------------------------------------------------------------- rng ----

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const u64 va = a();
    EXPECT_EQ(va, b());
    if (va != c()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (u32 bound : {1u, 2u, 3u, 17u, 1000u}) {
    for (int i = 0; i < 2000; ++i) EXPECT_LT(r.below(bound), bound);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Rng r(11);
  std::set<u32> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(r.below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, RangeInclusive) {
  Rng r(5);
  bool lo_hit = false, hi_hit = false;
  for (int i = 0; i < 5000; ++i) {
    const u32 v = r.range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    lo_hit |= v == 3;
    hi_hit |= v == 6;
  }
  EXPECT_TRUE(lo_hit);
  EXPECT_TRUE(hi_hit);
}

TEST(Rng, UniformMeanNearHalf) {
  Rng r(123);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng r(9);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, UniformWithinUnitInterval) {
  Rng r(77);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

// ---------------------------------------------------------------- cli ----

TEST(CommandLine, ParsesSeparateAndEqualsForms) {
  const char* argv[] = {"prog", "positional", "--alpha", "3", "--beta=0.5",
                        "--flag"};
  CommandLine cli(6, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0.0), 0.5);
  EXPECT_TRUE(cli.get_bool("flag", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(CommandLine, GreedyValueConsumption) {
  // A non-"--" token after a key is consumed as its value; bare flags must
  // therefore come last or use the --flag=true form (documented grammar).
  const char* argv[] = {"prog", "--flag", "tail"};
  CommandLine cli(3, argv);
  EXPECT_EQ(cli.get_string("flag", ""), "tail");
  EXPECT_TRUE(cli.positional().empty());
}

TEST(CommandLine, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  CommandLine cli(1, argv);
  EXPECT_EQ(cli.get_int("missing", -7), -7);
  EXPECT_EQ(cli.get_string("missing", "dflt"), "dflt");
  EXPECT_FALSE(cli.has("missing"));
}

TEST(CommandLine, TracksUnusedKeys) {
  const char* argv[] = {"prog", "--used", "1", "--typo", "2"};
  CommandLine cli(5, argv);
  (void)cli.get_int("used", 0);
  const auto unused = cli.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(CommandLine, BoolParsing) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=no"};
  CommandLine cli(5, argv);
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
}

// -------------------------------------------------------------- table ----

TEST(Table, FormatsCellsAndWritesCsv) {
  Table t({"name", "value", "count"});
  t.add_row({std::string("row1"), 1.5, u64{42}});
  t.add_row({std::string("row2"), 0.25, u64{7}});
  EXPECT_EQ(t.num_rows(), 2u);

  const std::string path = "/tmp/ofar_table_test.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,value,count");
  std::getline(in, line);
  EXPECT_EQ(line, "row1,1.5,42");
  std::remove(path.c_str());
}

TEST(Table, FormatVariants) {
  EXPECT_EQ(Table::format(Table::Cell{std::string("x")}), "x");
  EXPECT_EQ(Table::format(Table::Cell{i64{-3}}), "-3");
  EXPECT_EQ(Table::format(Table::Cell{u64{12}}), "12");
  EXPECT_EQ(Table::format(Table::Cell{2.0}), "2");
}

// ------------------------------------------------------------- config ----

TEST(SimConfig, DefaultsValidate) {
  SimConfig cfg;
  EXPECT_EQ(cfg.validate(), "");
  EXPECT_EQ(cfg.p(), cfg.h);
  EXPECT_EQ(cfg.a(), 2 * cfg.h);
  EXPECT_EQ(cfg.num_groups(), cfg.a() * cfg.h + 1);
}

TEST(SimConfig, PaperScaleNumbersMatch) {
  // §V: h=6 -> 73 groups of 12 routers = 876 routers, 5256 nodes.
  SimConfig cfg;
  cfg.h = 6;
  EXPECT_EQ(cfg.num_groups(), 73u);
  EXPECT_EQ(cfg.num_groups() * cfg.a(), 876u);
  EXPECT_EQ(cfg.num_groups() * cfg.a() * cfg.p(), 5256u);
}

TEST(SimConfig, RejectsTooSmallFifos) {
  SimConfig cfg;
  cfg.fifo_local = 4;  // smaller than the 8-phit packet
  EXPECT_NE(cfg.validate(), "");
}

TEST(SimConfig, OfarRequiresEscapeRing) {
  SimConfig cfg;
  cfg.routing = RoutingKind::kOfar;
  cfg.ring = RingKind::kNone;
  EXPECT_NE(cfg.validate(), "");
}

TEST(SimConfig, OrderedMechanismsNeedEnoughVcs) {
  SimConfig cfg;
  cfg.routing = RoutingKind::kVal;
  cfg.ring = RingKind::kNone;
  cfg.vcs_local = 2;  // VAL needs 3
  EXPECT_NE(cfg.validate(), "");
  cfg.routing = RoutingKind::kMin;  // MIN only needs 2
  EXPECT_EQ(cfg.validate(), "");
}

TEST(SimConfig, RejectsWhatTheKernelCannotHold) {
  // A router's output ports fill a 64-bit mask: h=16 on the physical ring
  // is exactly 64 ports, h=17 has 68.
  SimConfig cfg;
  cfg.h = 16;
  EXPECT_EQ(cfg.validate(), "");
  cfg.h = 17;
  EXPECT_NE(cfg.validate().find("68 ports"), std::string::npos)
      << cfg.validate();
  // An input port's VCs fill an 8-bit mask; the embedded ring adds one VC
  // to the port that receives it.
  cfg = SimConfig{};
  cfg.vcs_local = 8;
  EXPECT_EQ(cfg.validate(), "");
  cfg.ring = RingKind::kEmbedded;
  EXPECT_NE(cfg.validate().find("9 VCs"), std::string::npos)
      << cfg.validate();
}

TEST(SimConfig, RoutingKindRoundTrip) {
  for (RoutingKind k :
       {RoutingKind::kMin, RoutingKind::kVal, RoutingKind::kPb,
        RoutingKind::kUgal, RoutingKind::kOfar, RoutingKind::kOfarL}) {
    RoutingKind parsed;
    ASSERT_TRUE(parse_routing_kind(to_string(k), parsed));
    EXPECT_EQ(parsed, k);
  }
  RoutingKind dummy;
  EXPECT_FALSE(parse_routing_kind("bogus", dummy));
}

TEST(SimConfig, RingKindRoundTrip) {
  for (RingKind k :
       {RingKind::kNone, RingKind::kPhysical, RingKind::kEmbedded}) {
    RingKind parsed;
    ASSERT_TRUE(parse_ring_kind(to_string(k), parsed));
    EXPECT_EQ(parsed, k);
  }
}

// -------------------------------------------------------------- check ----

// Death tests run the failing statement in a re-executed subprocess
// ("threadsafe" style), so the abort genuinely fires and the stderr report
// is matched without killing this test binary.

TEST(Check, PassingConditionsAreNoOps) {
  int evaluations = 0;
  OFAR_CHECK(++evaluations == 1);
  OFAR_CHECK_MSG(++evaluations == 2, "never printed");
  EXPECT_EQ(evaluations, 2);
}

TEST(CheckDeath, CheckAbortsWithExpressionAndLocation) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const int x = 3;
  EXPECT_DEATH(OFAR_CHECK(x == 4),
               "OFAR_CHECK failed: x == 4 at .*test_common\\.cpp");
}

TEST(CheckDeath, CheckMsgAppendsTheMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(OFAR_CHECK_MSG(false, "queue overflowed"),
               "OFAR_CHECK failed: false at .* — queue overflowed");
}

#ifndef NDEBUG

TEST(CheckDeath, DcheckAbortsInCheckedBuilds) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(OFAR_DCHECK(1 + 1 == 3), "OFAR_CHECK failed: 1 \\+ 1 == 3");
  EXPECT_DEATH(OFAR_DCHECK_MSG(false, "dcheck message"),
               "OFAR_CHECK failed: false at .* — dcheck message");
}

#else

TEST(Check, DcheckDoesNotEvaluateInReleaseBuilds) {
  // The release definition keeps the operands inside unevaluated sizeof:
  // still parsed and type-checked (a stale member name breaks the NDEBUG
  // build), but never executed.
  int evaluations = 0;
  OFAR_DCHECK(++evaluations > 0);
  OFAR_DCHECK_MSG(++evaluations > 0, "unused");
  EXPECT_EQ(evaluations, 0);
  OFAR_DCHECK(false);  // would abort in a checked build
  OFAR_DCHECK_MSG(false, "ignored");
}

#endif

// ----------------------------------------------------------- parallel ----

TEST(Parallel, RunsEveryJobExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 64; ++i)
    jobs.emplace_back([&hits, i] { hits[i].fetch_add(1); });
  run_parallel(jobs, 4);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, SequentialFallback) {
  int counter = 0;
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 5; ++i) jobs.emplace_back([&counter] { ++counter; });
  run_parallel(jobs, 1);
  EXPECT_EQ(counter, 5);
}

TEST(Parallel, ShardPoolRunsEveryIndexExactlyOncePerPhase) {
  ShardPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  std::vector<std::atomic<int>> hits(13);
  // Many phases through one pool: reuse must not double-run or skip an
  // index, and the return from parallel_phase is a full barrier.
  for (int phase = 0; phase < 50; ++phase) {
    pool.parallel_phase(13, [&](u32 i) { hits[i].fetch_add(1); });
    for (u32 i = 0; i < 13; ++i)
      ASSERT_EQ(hits[i].load(), phase + 1) << "phase " << phase;
  }
}

TEST(Parallel, ShardPoolHandlesFewerShardsThanThreads) {
  ShardPool pool(8);
  std::atomic<int> hits{0};
  pool.parallel_phase(3, [&](u32) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 3);
  pool.parallel_phase(0, [&](u32) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 3);
}

TEST(Parallel, ShardPoolSingleThreadRunsInline) {
  ShardPool pool(1);
  std::vector<u32> order;
  pool.parallel_phase(5, [&](u32 i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<u32>{0, 1, 2, 3, 4}));
}

// The dispatch protocol under the loads the sharded kernel puts on it: a
// flood of back-to-back phases (workers never leave the spin), gaps long
// enough that every waiting thread parks, and teardown in either state.
// A sleep of 50 ms is far beyond kSpinIterations pauses on any host.
constexpr auto kPastSpinBudget = std::chrono::milliseconds(50);

TEST(Parallel, ShardPoolBackToBackEmptyPhases) {
  ShardPool pool(4);
  std::atomic<u64> calls{0};
  const u32 phases = 100'000;
  for (u32 p = 0; p < phases; ++p)
    pool.parallel_phase(8, [&](u32) {
      calls.fetch_add(1, std::memory_order_relaxed);
    });
  EXPECT_EQ(calls.load(), u64{phases} * 8);
}

TEST(Parallel, ShardPoolOversubscribedEmptyPhases) {
  // Twice as many pool threads as the host has cores: a waiting thread
  // that never gave its core up would starve the thread it waits for. Its
  // own ctest TIMEOUT (tests/CMakeLists.txt) is the bound.
  const unsigned threads =
      2 * std::max(1u, std::thread::hardware_concurrency());
  ShardPool pool(threads);
  std::atomic<u64> calls{0};
  const u32 phases = 20'000;
  for (u32 p = 0; p < phases; ++p)
    pool.parallel_phase(threads, [&](u32) {
      calls.fetch_add(1, std::memory_order_relaxed);
    });
  EXPECT_EQ(calls.load(), u64{phases} * threads);
}

TEST(Parallel, ShardPoolWakesParkedWorkersAfterLongGaps) {
  ShardPool pool(4);
  std::vector<u32> hits(8, 0);  // plain ints: the barrier orders the reads
  for (u32 phase = 1; phase <= 4; ++phase) {
    std::this_thread::sleep_for(kPastSpinBudget);
    pool.parallel_phase(8, [&](u32 i) { ++hits[i]; });
    for (u32 i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i], phase) << "shard " << i;
  }
}

TEST(Parallel, ShardPoolCallerParksOnALongPhase) {
  // One shard outlasts the spin budget, so the caller parks in the barrier
  // and must be woken by the worker that finishes last.
  ShardPool pool(4);
  std::atomic<int> done{0};
  pool.parallel_phase(4, [&](u32 i) {
    if (i == 3) std::this_thread::sleep_for(kPastSpinBudget);
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 4);
}

TEST(Parallel, ShardPoolCountsBelowAndOffTheThreadCount) {
  ShardPool pool(4);
  for (const u32 count : {1u, 2u, 3u, 5u, 6u, 7u, 9u, 13u}) {
    std::vector<u32> hits(count, 0);
    pool.parallel_phase(count, [&](u32 i) { ++hits[i]; });
    EXPECT_EQ(hits, std::vector<u32>(count, 1)) << "count " << count;
  }
}

TEST(Parallel, ShardPoolDestroyedWhileWorkersSpin) {
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> hits{0};
    {
      ShardPool pool(4);
      pool.parallel_phase(4, [&](u32) { hits.fetch_add(1); });
    }  // workers are still inside their spin budget here
    EXPECT_EQ(hits.load(), 4);
  }
  ShardPool never_dispatched(4);  // destroyed before any phase ran
}

TEST(Parallel, ShardPoolDestroyedWhileWorkersParked) {
  std::atomic<int> hits{0};
  {
    ShardPool pool(4);
    pool.parallel_phase(4, [&](u32) { hits.fetch_add(1); });
    std::this_thread::sleep_for(kPastSpinBudget);
  }
  EXPECT_EQ(hits.load(), 4);
}

}  // namespace
}  // namespace ofar
