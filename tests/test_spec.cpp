// Tests for the declarative experiment-spec layer (common/json.*,
// core/spec.*): JSON parsing, spec loading and expansion, the load-grid
// arithmetic contract, and the canonical cache-key properties (stability,
// sensitivity to semantic fields, insensitivity to instrumentation).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/spec.hpp"
#include "traffic/pattern.hpp"

namespace ofar {
namespace {

// ---------------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------------

JsonValue parse_ok(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(json_parse(text, v, error)) << error;
  return v;
}

TEST(Json, ParsesScalarsArraysAndObjects) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_TRUE(parse_ok("true").as_bool());
  EXPECT_EQ(parse_ok("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(parse_ok("0.125").as_double(), 0.125);
  EXPECT_EQ(parse_ok("\"hi\\nthere\"").as_string(), "hi\nthere");

  const JsonValue arr = parse_ok("[1, 2.5, \"x\", [true]]");
  ASSERT_EQ(arr.items().size(), 4u);
  EXPECT_EQ(arr.items()[0].as_int(), 1);
  EXPECT_TRUE(arr.items()[3].items()[0].as_bool());

  const JsonValue obj = parse_ok("{\"a\": 1, \"b\": {\"c\": [2]}}");
  ASSERT_NE(obj.find("b"), nullptr);
  EXPECT_EQ(obj.find("b")->find("c")->items()[0].as_int(), 2);
  EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(Json, PreservesIntegerExactnessAndMemberOrder) {
  const JsonValue v = parse_ok("{\"z\": 9007199254740993, \"a\": 1.5}");
  ASSERT_NE(v.find("z"), nullptr);
  EXPECT_TRUE(v.find("z")->has_exact_int());
  EXPECT_EQ(v.find("z")->as_int(), 9007199254740993LL);
  EXPECT_FALSE(v.find("a")->has_exact_int());
  // Members iterate in document order, not sorted order.
  EXPECT_EQ(v.members()[0].first, "z");
  EXPECT_EQ(v.members()[1].first, "a");
}

TEST(Json, RejectsMalformedInputWithPosition) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(json_parse("{\"a\": }", v, error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_FALSE(json_parse("[1, 2,]", v, error));
  EXPECT_FALSE(json_parse("{} trailing", v, error));
  EXPECT_FALSE(json_parse("", v, error));
  EXPECT_FALSE(json_parse("{\"a\": 1", v, error));
}

TEST(Json, DecodesUnicodeEscapes) {
  EXPECT_EQ(parse_ok("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(parse_ok("\"\\u00e9\"").as_string(), "\xc3\xa9");
}

// ---------------------------------------------------------------------------
// Load grid
// ---------------------------------------------------------------------------

TEST(Spec, LoadGridMatchesLegacyBenchArithmeticBitForBit) {
  // The figure benches have always computed the grid with this exact
  // expression; spec files using the {min,max,points} form must reproduce
  // historical CSVs bit-for-bit, so the arithmetic may never drift.
  const double lo = 0.05, hi = 0.60;
  const u32 points = 8;
  const std::vector<double> grid = expand_load_grid(lo, hi, points);
  ASSERT_EQ(grid.size(), points);
  for (u32 i = 0; i < points; ++i) {
    const double legacy = lo + (hi - lo) * i / (points > 1 ? points - 1 : 1);
    EXPECT_EQ(grid[i], legacy);  // exact, not approximate
  }
  EXPECT_EQ(expand_load_grid(0.3, 0.7, 1).size(), 1u);
  EXPECT_EQ(expand_load_grid(0.3, 0.7, 1)[0], 0.3);
}

// ---------------------------------------------------------------------------
// Spec loading + expansion
// ---------------------------------------------------------------------------

const char* kSteadySpec = R"({
  "name": "t",
  "title": "test",
  "kind": "steady",
  "h": 2,
  "seeds": [1, 7],
  "warmup": 100,
  "measure": 200,
  "patterns": ["UN", "ADV+h"],
  "loads": [0.1, 0.2, 0.3],
  "mechanisms": [
    {"routing": "MIN"},
    {"label": "OFAR-emb", "routing": "OFAR", "ring": "embedded"}
  ]
})";

TEST(Spec, LoadsSteadySpecFromJson) {
  JsonValue doc = parse_ok(kSteadySpec);
  ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(spec_from_json(doc, spec, error)) << error;

  EXPECT_EQ(spec.name, "t");
  EXPECT_EQ(spec.kind, RunKind::kSteady);
  EXPECT_EQ(spec.h, 2u);
  EXPECT_EQ(spec.seeds, (std::vector<u64>{1, 7}));
  EXPECT_EQ(spec.run.warmup, 100u);
  EXPECT_EQ(spec.run.measure, 200u);
  ASSERT_EQ(spec.mechanisms.size(), 2u);
  EXPECT_EQ(spec.mechanisms[0].label, "MIN");
  EXPECT_EQ(spec.mechanisms[0].cfg.ring, RingKind::kNone);  // VC-ordered
  EXPECT_EQ(spec.mechanisms[1].label, "OFAR-emb");
  EXPECT_EQ(spec.mechanisms[1].cfg.ring, RingKind::kEmbedded);  // override
  ASSERT_EQ(spec.patterns.size(), 2u);
  // "ADV+h" substitutes the spec's radix.
  EXPECT_EQ(spec.patterns[1].pattern.components()[0].offset, 2u);
}

TEST(Spec, ExpansionOrderAndIndices) {
  JsonValue doc = parse_ok(kSteadySpec);
  ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(spec_from_json(doc, spec, error)) << error;

  const std::vector<RunPoint> points = spec.expand();
  // seeds (2) x cases (2) x loads (3) x mechanisms (2)
  ASSERT_EQ(points.size(), 24u);
  // Innermost axis is the mechanism; the seed is applied onto cfg.
  EXPECT_EQ(points[0].mechanism, "MIN");
  EXPECT_EQ(points[1].mechanism, "OFAR-emb");
  EXPECT_EQ(points[0].seed, 1u);
  EXPECT_EQ(points[0].cfg.seed, 1u);
  EXPECT_EQ(points.back().seed, 7u);
  EXPECT_EQ(points.back().cfg.seed, 7u);
  // Index bookkeeping for renderers: ((s*C + c)*L + l)*M + m.
  const RunPoint& p = points[((1 * 2 + 1) * 3 + 2) * 2 + 1];
  EXPECT_EQ(p.seed_index, 1u);
  EXPECT_EQ(p.case_index, 1u);
  EXPECT_EQ(p.load_index, 2u);
  EXPECT_EQ(p.mech_index, 1u);
  EXPECT_EQ(p.case_name, "ADV+h");
  EXPECT_DOUBLE_EQ(p.load, 0.3);
}

TEST(Spec, RejectsTyposLoudly) {
  ExperimentSpec spec;
  std::string error;

  JsonValue doc = parse_ok(
      R"({"kind": "steady", "patterns": ["UN"], "loads": [0.1],
          "mechanisms": [{"routing": "OFAR", "vcs_locl": 3}]})");
  EXPECT_FALSE(spec_from_json(doc, spec, error));
  EXPECT_NE(error.find("vcs_locl"), std::string::npos) << error;

  doc = parse_ok(R"({"kind": "steady", "patterns": ["NOPE"], "loads": [0.1],
                     "mechanisms": [{"routing": "OFAR"}]})");
  EXPECT_FALSE(spec_from_json(doc, spec, error));

  doc = parse_ok(R"({"kind": "steady", "patterns": ["UN"], "loads": [0.1]})");
  EXPECT_FALSE(spec_from_json(doc, spec, error));
  EXPECT_NE(error.find("mechanisms"), std::string::npos) << error;

  // `wiring_table` is not a config key, per mechanism or in the shared
  // config.
  doc = parse_ok(
      R"({"kind": "steady", "patterns": ["UN"], "loads": [0.1],
          "mechanisms": [{"routing": "OFAR", "wiring_table": true}]})");
  EXPECT_FALSE(spec_from_json(doc, spec, error));
  EXPECT_NE(error.find("unknown config key 'wiring_table'"),
            std::string::npos)
      << error;
  doc = parse_ok(R"({"kind": "steady", "patterns": ["UN"], "loads": [0.1],
                     "config": {"wiring_table": false},
                     "mechanisms": [{"routing": "OFAR"}]})");
  EXPECT_FALSE(spec_from_json(doc, spec, error));
  EXPECT_NE(error.find("unknown config key 'wiring_table'"),
            std::string::npos)
      << error;
}

TEST(Spec, LoadsTransientAndBurstSpecs) {
  ExperimentSpec spec;
  std::string error;
  JsonValue doc = parse_ok(
      R"({"kind": "transient", "h": 2,
          "transitions": [{"a": "UN", "b": "ADV+2", "load": 0.14}],
          "switch_at": 1000, "bucket": 50,
          "mechanisms": [{"routing": "PB"}, {"routing": "OFAR"}]})");
  ASSERT_TRUE(spec_from_json(doc, spec, error)) << error;
  ASSERT_EQ(spec.transitions.size(), 1u);
  EXPECT_EQ(spec.transitions[0].name, "UN->ADV+2");
  EXPECT_DOUBLE_EQ(spec.transitions[0].load_b, 0.14);
  EXPECT_EQ(spec.transient.warmup, 1000u);
  EXPECT_EQ(spec.transient.bucket, 50u);
  EXPECT_EQ(spec.expand().size(), 2u);

  doc = parse_ok(
      R"({"kind": "burst", "h": 2, "packets": 25, "max_cycles": 9999,
          "workloads": ["UN", {"mix": [{"kind": "uniform", "weight": 0.5},
                                       {"kind": "adversarial", "offset": 1,
                                        "weight": 0.5}], "name": "MIXY"}],
          "mechanisms": [{"routing": "OFAR"}]})");
  ASSERT_TRUE(spec_from_json(doc, spec, error)) << error;
  EXPECT_EQ(spec.burst.packets_per_node, 25u);
  EXPECT_EQ(spec.burst.max_cycles, 9999u);
  ASSERT_EQ(spec.workloads.size(), 2u);
  EXPECT_EQ(spec.workloads[1].name, "MIXY");
  EXPECT_EQ(spec.workloads[1].pattern.components().size(), 2u);
}

// ---------------------------------------------------------------------------
// Canonical cache keys
// ---------------------------------------------------------------------------

RunPoint base_point() {
  RunPoint p;
  p.kind = RunKind::kSteady;
  p.mechanism = "OFAR";
  p.seed = 3;
  p.cfg.h = 2;
  p.cfg.seed = 3;
  p.cfg.routing = RoutingKind::kOfar;
  p.cfg.ring = RingKind::kPhysical;
  p.pattern = TrafficPattern::adversarial(2);
  p.load = 0.25;
  p.run = RunParams::windows(100, 200);
  return p;
}

TEST(Spec, PointKeyIsStableAcrossCalls) {
  const RunPoint p = base_point();
  const std::string k = point_key(p);
  EXPECT_EQ(k.size(), 32u);
  EXPECT_EQ(k, point_key(p));
  // The canonical text is human-readable and carries the schema version.
  const std::string text = canonical_point(p);
  EXPECT_NE(text.find("v3;kind=steady;seed=3;"), std::string::npos) << text;
  EXPECT_NE(text.find("routing=OFAR"), std::string::npos) << text;
}

TEST(Spec, PointKeyChangesWithEverySemanticField) {
  const RunPoint p = base_point();
  const std::string k = point_key(p);

  RunPoint q = p;
  q.seed = 4;
  q.cfg.seed = 4;
  EXPECT_NE(point_key(q), k);
  q = p;
  q.load = 0.26;
  EXPECT_NE(point_key(q), k);
  q = p;
  q.cfg.vcs_local = q.cfg.vcs_local + 1;
  EXPECT_NE(point_key(q), k);
  q = p;
  q.cfg.thresholds.nonmin_factor = 0.8;
  EXPECT_NE(point_key(q), k);
  q = p;
  q.pattern = TrafficPattern::adversarial(3);
  EXPECT_NE(point_key(q), k);
  q = p;
  q.run.warmup = 101;
  EXPECT_NE(point_key(q), k);
  q = p;
  q.kind = RunKind::kBurst;
  EXPECT_NE(point_key(q), k);
  // sim_shards selects a different (still deterministic) kernel universe,
  // so it is semantic and must miss the cache.
  q = p;
  q.cfg.sim_shards = 4;
  EXPECT_NE(point_key(q), k);
  // shard_group_major moves routers between shard lanes — semantic too.
  q = p;
  q.cfg.shard_group_major = true;
  EXPECT_NE(point_key(q), k);
}

TEST(Spec, PointKeyIgnoresInstrumentationAndLabels) {
  // Audit, telemetry and tracing are read-only; labels and grid indices are
  // presentation. None of them may affect the cache key, or cache hits
  // would depend on how the experiment was driven rather than what it was.
  const RunPoint p = base_point();
  const std::string k = point_key(p);

  RunPoint q = p;
  q.run.instrumentation.audit_interval = 512;
  q.run.instrumentation.metrics_interval = 17;
  q.run.instrumentation.metrics_full = true;
  q.run.instrumentation.trace_out = "trace.json";
  q.run.metrics_label = "curve A";
  // sim_threads is execution policy: any thread count yields bit-identical
  // results for a given sim_shards, so it must hit the same cache entry.
  q.run.sim_threads = 4;
  EXPECT_EQ(point_key(q), k);
  q = p;
  q.mechanism = "renamed";
  q.case_name = "other";
  q.mech_index = 9;
  q.load_index = 9;
  EXPECT_EQ(point_key(q), k);
}

TEST(Spec, ContentDigestIsFixedAlgorithm) {
  // Pinned value: the digest is part of the on-disk cache format. If this
  // changes, kSpecSchemaVersion must be bumped so stale caches invalidate.
  EXPECT_EQ(content_digest(""),
            content_digest(""));  // deterministic
  EXPECT_NE(content_digest("a"), content_digest("b"));
  EXPECT_EQ(content_digest("ofar").size(), 32u);
}

TEST(Spec, AppendDoubleUsesShortestRoundTripForm) {
  std::string s;
  append_double(s, 0.1);
  EXPECT_EQ(s, "0.1");
  s.clear();
  append_double(s, 1.0 / 3.0);
  const double back = std::stod(s);
  EXPECT_EQ(back, 1.0 / 3.0);  // bit-identical round trip
}

}  // namespace
}  // namespace ofar
