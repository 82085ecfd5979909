// Tests for the declarative experiment-spec layer (common/json.*,
// core/spec.*): JSON parsing, spec loading and expansion, the load-grid
// arithmetic contract, and the canonical cache-key properties (stability,
// sensitivity to semantic fields, insensitivity to labels).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <string>
#include <type_traits>
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

TEST(Json, RejectsNestingDeeperThanTheLimit) {
  // The parser recurses per level: a million '[' used to overflow the
  // stack. The limit is an error at the bracket that crosses it.
  JsonValue v;
  std::string error;
  EXPECT_FALSE(json_parse(std::string(1'000'000, '['), v, error));
  EXPECT_EQ(error, "line 1, column " + std::to_string(kJsonMaxDepth + 1) +
                       ": nesting deeper than " +
                       std::to_string(kJsonMaxDepth) + " levels");
  const auto nested = [](u32 depth) {
    std::string text;
    for (u32 i = 0; i < depth; ++i) text += i % 2 == 0 ? "[" : "{\"k\":";
    text += '0';
    for (u32 i = depth; i-- > 0;) text += i % 2 == 0 ? "]" : "}";
    return text;
  };
  EXPECT_TRUE(json_parse(nested(kJsonMaxDepth), v, error)) << error;
  EXPECT_FALSE(json_parse(nested(kJsonMaxDepth + 1), v, error));
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;
}

TEST(Json, DecodesUnicodeEscapes) {
  EXPECT_EQ(parse_ok("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(parse_ok("\"\\u00e9\"").as_string(), "\xc3\xa9");
}

TEST(Json, WriterEscapesWhatTheParserReadsBack) {
  const std::string text = "plain \"q\" \\ \n\r\t\x01\x1f end";
  JsonWriter w;
  w.begin_object().key("k\"").value(text);
  w.key("inf").value(std::numeric_limits<double>::infinity());
  w.key("d").value(0.1).end_object();
  EXPECT_EQ(w.str(),
            "{\"k\\\"\":\"plain \\\"q\\\" \\\\ \\n\\r\\t\\u0001\\u001f end\","
            "\"inf\":null,\"d\":0.1}");
  const JsonValue v = parse_ok(w.str());
  ASSERT_NE(v.find("k\""), nullptr);
  EXPECT_EQ(v.find("k\"")->as_string(), text);
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
  // Renderers find point (s, c, l, m) at ((s*C + c)*L + l)*M + m.
  const RunPoint& p = points[((1 * 2 + 1) * 3 + 2) * 2 + 1];
  EXPECT_EQ(p.seed, 7u);
  EXPECT_EQ(p.case_name, "ADV+h");
  EXPECT_DOUBLE_EQ(p.load, 0.3);
  EXPECT_EQ(p.mechanism, "OFAR-emb");
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

  // An entry without a label is labelled with its routing name, so these
  // two would share CSV columns, telemetry labels and trace file names.
  doc = parse_ok(R"({"kind": "steady", "patterns": ["UN"], "loads": [0.1],
                     "mechanisms": [{"routing": "OFAR"},
                                    {"routing": "OFAR", "ring": "embedded"}]})");
  EXPECT_FALSE(spec_from_json(doc, spec, error));
  EXPECT_NE(error.find("mechanism label 'OFAR' repeats"), std::string::npos)
      << error;
}

TEST(Spec, RejectsConfigsTheKernelCannotHold) {
  // h=17 routers have 68 ports, past the kernel's 64-bit port masks: the
  // load fails, before any run builds a router.
  const JsonValue doc =
      parse_ok(R"({"kind": "steady", "h": 17, "patterns": ["UN"],
                   "loads": [0.1], "mechanisms": [{"routing": "OFAR"}]})");
  ExperimentSpec spec;
  std::string error;
  EXPECT_FALSE(spec_from_json(doc, spec, error));
  EXPECT_NE(error.find("mechanism OFAR: a router has 68 ports"),
            std::string::npos)
      << error;
}

TEST(Spec, RejectsUnknownKeysAtEveryLevel) {
  // Each typo below used to be ignored, and the run used the default the
  // key was meant to override. A member of another spec kind is unknown
  // too.
  const std::string steady =
      R"("kind": "steady", "mechanisms": [{"routing": "OFAR"}], )";
  const std::string burst =
      R"("kind": "burst", "mechanisms": [{"routing": "OFAR"}], )";
  const std::string transient =
      R"("kind": "transient", "mechanisms": [{"routing": "OFAR"}], )";
  const struct {
    std::string body;
    const char* error;
  } cases[] = {
      {steady + R"("patterns": ["UN"], "loads": [0.1], "measrue": 10)",
       "unknown steady spec key 'measrue'"},
      {steady + R"("patterns": ["UN"], "loads": [0.1],
                   "conifg": {"vcs_local": 9})",
       "unknown steady spec key 'conifg'"},
      {steady + R"("patterns": ["UN"], "loads": [0.1], "packets": 5)",
       "unknown steady spec key 'packets'"},
      {burst + R"("workloads": ["UN"], "packet": 5)",
       "unknown burst spec key 'packet'"},
      {steady + R"("patterns": ["UN"],
                   "loads": {"min": 0.1, "max": 0.5, "ponits": 3})",
       "loads: unknown load grid key 'ponits'"},
      {burst + R"("workloads": [{"mix": [{"kind": "uniform",
                                          "wieght": 0.5}]}])",
       "workloads[0].mix[0]: unknown mix entry key 'wieght'"},
      {burst + R"("workloads": [{"mix": [{"kind": "uniform"}],
                                 "nmae": "M"}])",
       "workloads[0]: unknown pattern key 'nmae'"},
      {transient + R"("transitions": [{"a": "UN", "b": "ADV+1",
                                       "laod": 0.3}])",
       "transitions[0]: unknown transition key 'laod'"},
      {steady + R"("patterns": ["UN"], "loads": [0.1],
                   "config": {"thresholds": {"min_gapp": 0.2}})",
       "config.thresholds: unknown thresholds key 'min_gapp'"},
  };
  for (const auto& c : cases) {
    ExperimentSpec spec;
    std::string error;
    JsonValue doc;
    ASSERT_TRUE(json_parse("{" + c.body + "}", doc, error)) << c.body;
    EXPECT_FALSE(spec_from_json(doc, spec, error)) << c.body;
    EXPECT_NE(error.find(c.error), std::string::npos)
        << "error \"" << error << "\" lacks \"" << c.error << "\"";
  }
  ExperimentSpec spec;
  std::string error;
  EXPECT_FALSE(spec_from_json(
      parse_ok(R"({"patterns": ["UN"], "loads": [0.1],
                   "mechanisms": [{"routing": "OFAR", "vcs_locl": 3}]})"),
      spec, error));
  EXPECT_EQ(error, "mechanisms[0]: unknown config key 'vcs_locl'");
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

TEST(Spec, EveryExampleSpecLoads) {
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(OFAR_EXAMPLES_DIR))
    if (e.path().extension() == ".json")
      names.push_back(e.path().filename().string());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names.size(), 7u);
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    ExperimentSpec spec;
    std::string error;
    ASSERT_TRUE(spec_from_file(std::string(OFAR_EXAMPLES_DIR) + "/" + name,
                               spec, error))
        << error;
    EXPECT_EQ(spec.validate(), "");
    const std::vector<RunPoint> points = spec.expand();
    EXPECT_FALSE(points.empty());
    if (name != "fig3.json") continue;
    // The fig3 preset at its default flags: the same 32 point keys.
    ASSERT_EQ(points.size(), 32u);
    std::vector<std::string> keys;
    for (const RunPoint& p : points) keys.push_back(point_key(p));
    std::sort(keys.begin(), keys.end());
    std::string all;
    for (const std::string& k : keys) all += k + '\n';
    EXPECT_EQ(content_digest(all), "bb5b2dec7aa4b3b34b36b20b551f00ba");
  }
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

// ---- a walk over the declared config fields (visit_fields) ----

/// Calls f(json_key, leaf) for every declared field, nested groups
/// flattened.
template <typename Fields, typename F>
void visit_leaves(Fields& fields, F&& f) {
  visit_fields(fields, [&f](const char* key, const char*, auto& value) {
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                 MisrouteThresholds>)
      visit_leaves(value, f);
    else
      f(key, value);
  });
}

/// Moves a field off its value, keeping the walk's config valid.
void perturb(u32& v) { ++v; }
void perturb(i32& v) { v = -v - 1; }  // negative: the sign-extended form
void perturb(double& v) { v += 0.125; }
void perturb(bool& v) { v = !v; }
void perturb(RoutingKind& v) {
  v = v == RoutingKind::kOfar ? RoutingKind::kOfarL : RoutingKind::kOfar;
}
void perturb(RingKind& v) {
  v = v == RingKind::kPhysical ? RingKind::kEmbedded : RingKind::kPhysical;
}

std::string json_of(u32 v) { return std::to_string(v); }
std::string json_of(i32 v) { return std::to_string(v); }
std::string json_of(double v) {
  std::string s;
  append_double(s, v);
  return s;
}
std::string json_of(bool v) { return v ? "true" : "false"; }
std::string json_of(RoutingKind v) {
  return std::string("\"") + to_string(v) + "\"";
}
std::string json_of(RingKind v) {
  return std::string("\"") + to_string(v) + "\"";
}
std::string json_of(const MisrouteThresholds& t);

/// A JSON object holding every declared field of `fields` that has a key.
template <typename Fields>
std::string object_json(const Fields& fields) {
  std::string out = "{";
  visit_fields(fields, [&out](const char* key, const char*,
                              const auto& value) {
    if (key == nullptr) return;
    if (out.size() > 1) out += ',';
    out += std::string("\"") + key + "\":" + json_of(value);
  });
  return out + "}";
}
std::string json_of(const MisrouteThresholds& t) { return object_json(t); }

TEST(Spec, PointKeyChangesWithEverySemanticField) {
  RunPoint p = base_point();
  p.cfg.groups = 5;  // so one more group is still a valid network
  const std::string k = point_key(p);

  // Every declared config field changes the key, and reaches the loader:
  // a spec naming the perturbed config loads back exactly that config.
  std::size_t leaves = 0;
  visit_leaves(p.cfg, [&leaves](const char*, auto&) { ++leaves; });
  for (std::size_t i = 0; i < leaves; ++i) {
    RunPoint q = p;
    std::size_t at = 0;
    const char* name = "h";
    visit_leaves(q.cfg, [&](const char* key, auto& value) {
      if (at++ != i) return;
      perturb(value);
      if (key != nullptr) name = key;
    });
    SCOPED_TRACE(name);
    EXPECT_NE(point_key(q), k);

    const std::string text =
        R"({"kind": "steady", "patterns": ["UN"], "loads": [0.1], "h": )" +
        std::to_string(q.cfg.h) +
        R"(, "mechanisms": [)" + object_json(q.cfg) + "]}";
    ExperimentSpec spec;
    std::string error;
    ASSERT_TRUE(spec_from_json(parse_ok(text), spec, error))
        << error << "\n" << text;
    SimConfig loaded = spec.mechanisms.at(0).cfg;
    loaded.seed = q.cfg.seed;
    EXPECT_EQ(config_signature(loaded), config_signature(q.cfg));
  }

  // The point's own coordinates.
  RunPoint q = p;
  q.seed = 4;
  q.cfg.seed = 4;
  EXPECT_NE(point_key(q), k);
  q = p;
  q.load = 0.26;
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
}

TEST(Spec, PointKeyIgnoresLabels) {
  // Labels are presentation. They may not affect the cache key, or cache
  // hits would depend on how a curve is named rather than what it runs.
  // How a point executes (instrumentation, threads, checkpoints) is a
  // RunContext beside the point, so the key cannot see it at all.
  const RunPoint p = base_point();
  RunPoint q = p;
  q.mechanism = "renamed";
  q.case_name = "other";
  EXPECT_EQ(point_key(q), point_key(p));
}

TEST(Spec, ContentDigestIsFixedAlgorithm) {
  // Pinned values: the digest is part of the on-disk cache format. If one
  // changes, kSpecSchemaVersion must be bumped so stale caches invalidate.
  EXPECT_EQ(content_digest(""), "cbf29ce48422232555c5e55dfb685f30");
  EXPECT_EQ(content_digest("ofar"), "4ee025b49439b97bc716b077d45c1266");
  EXPECT_NE(content_digest("a"), content_digest("b"));
}

/// A transient point whose config differs from the defaults in the PB and
/// UGAL knobs (a negative bias included) and in the VC and FIFO shape.
RunPoint transient_point() {
  RunPoint p = base_point();
  p.kind = RunKind::kTransient;
  p.cfg.routing = RoutingKind::kPb;
  p.cfg.ring = RingKind::kNone;
  p.cfg.ugal_bias_phits = -3;
  p.cfg.pb_broadcast_delay = 7;
  p.cfg.pb_saturation_threshold = 0.5;
  p.cfg.vcs_local = 4;
  p.cfg.fifo_global = 128;
  p.pattern = TrafficPattern::uniform();
  p.load = 0.1;
  p.pattern_b = TrafficPattern::adversarial(2);
  p.load_b = 0.2;
  p.transient.warmup = 1000;
  p.transient.horizon = 2000;
  p.transient.lead = 100;
  p.transient.drain = 300;
  p.transient.bucket = 50;
  return p;
}

/// A burst point on a mixed pattern whose config differs from the
/// defaults in the thresholds, the throttle and the shard layout.
RunPoint burst_point() {
  RunPoint p = base_point();
  p.kind = RunKind::kBurst;
  p.cfg.routing = RoutingKind::kOfarL;
  p.cfg.ring = RingKind::kEmbedded;
  p.cfg.groups = 5;
  p.cfg.thresholds.variable = false;
  p.cfg.thresholds.th_min = 0.25;
  p.cfg.congestion_throttle = true;
  p.cfg.throttle_on = 0.7;
  p.cfg.sim_shards = 4;
  p.cfg.shard_group_major = true;
  p.cfg.deadlock_timeout = 5000;
  p.pattern = TrafficPattern::mix({{PatternKind::kUniform, 0, 0.5},
                                   {PatternKind::kAdversarial, 1, 0.5}});
  p.burst.packets_per_node = 25;
  p.burst.max_cycles = 9999;
  return p;
}

TEST(Spec, CanonicalTextsArePinned) {
  // The canonical texts are the cache's address space: a change to any of
  // them (tag, order, number format) silently orphans every cached result,
  // so each one is pinned verbatim together with its key.
  const RunPoint steady = base_point();
  EXPECT_EQ(canonical_point(steady),
            "v3;kind=steady;seed=3;cfg{h=2;groups=0;ps=8;ll=10;gl=100;"
            "fl=32;fg=256;fi=32;vl=3;vg=2;vi=3;ai=3;routing=OFAR;"
            "ring=physical;thr{var=1;min=0;nmf=0.9;nms=0.4;gap=0.15};"
            "mre=4;rs=1;pbs=0.35;pbd=10;ub=4;ct=0;on=0.6;off=0.45;"
            "dt=200000;shards=1;sgm=0};pat=[a:2:1];load=0.25;warmup=100;"
            "measure=200");
  EXPECT_EQ(point_key(steady), "dabb5bedd21666886b7e8fbc9eb756ad");
  const RunPoint transient = transient_point();
  EXPECT_EQ(canonical_point(transient),
            "v3;kind=transient;seed=3;cfg{h=2;groups=0;ps=8;ll=10;gl=100;"
            "fl=32;fg=128;fi=32;vl=4;vg=2;vi=3;ai=3;routing=PB;ring=none;"
            "thr{var=1;min=0;nmf=0.9;nms=0.4;gap=0.15};mre=4;rs=1;"
            "pbs=0.5;pbd=7;ub=18446744073709551613;ct=0;on=0.6;off=0.45;"
            "dt=200000;shards=1;sgm=0};pat=[u:0:1];load=0.1;patb=[a:2:1];"
            "loadb=0.2;switch=1000;horizon=2000;lead=100;drain=300;"
            "bucket=50");
  EXPECT_EQ(point_key(transient), "d731c88735cb50f7d670fdaa3bdad32c");
  const RunPoint burst = burst_point();
  EXPECT_EQ(canonical_point(burst),
            "v3;kind=burst;seed=3;cfg{h=2;groups=5;ps=8;ll=10;gl=100;"
            "fl=32;fg=256;fi=32;vl=3;vg=2;vi=3;ai=3;routing=OFAR-L;"
            "ring=embedded;thr{var=0;min=0.25;nmf=0.9;nms=0.4;gap=0.15};"
            "mre=4;rs=1;pbs=0.35;pbd=10;ub=4;ct=1;on=0.7;off=0.45;"
            "dt=5000;shards=4;sgm=1};pat=[u:0:0.5,a:1:0.5];packets=25;"
            "maxcycles=9999");
  EXPECT_EQ(point_key(burst), "53a08643a530355c816cf89d9a7e9f77");
  EXPECT_EQ(config_signature(burst.cfg),
            "ckpt-v3;cfg{h=2;groups=5;ps=8;ll=10;gl=100;fl=32;fg=256;"
            "fi=32;vl=3;vg=2;vi=3;ai=3;routing=OFAR-L;ring=embedded;"
            "thr{var=0;min=0.25;nmf=0.9;nms=0.4;gap=0.15};mre=4;rs=1;"
            "pbs=0.35;pbd=10;ub=4;ct=1;on=0.7;off=0.45;dt=5000;shards=4;"
            "sgm=1};seed=3");
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
