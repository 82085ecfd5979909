// Tracing subsystem tests (src/trace, DESIGN.md §11):
//  - deterministic sampling: hash-based, pure in (seq, denominator);
//  - trace-stream determinism: the full serialized event stream (provenance
//    included) is bit-identical across sim_threads on the sharded kernel,
//    physical and embedded rings;
//  - routing-decision provenance: on a crafted congested router the
//    granted hop's condition matches the misroute kind the policy chose,
//    and every mechanism's traced grant conditions are pinned at one point;
//  - PacketTracer end to end: Perfetto JSON written, journeys assembled,
//    its bytes pinned on both ring kinds, instrumentation invisible to
//    orchestrator results.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/orchestrator.hpp"
#include "core/spec.hpp"
#include "routing/routing.hpp"
#include "sim/flat_state.hpp"
#include "sim/network.hpp"
#include "trace/trace.hpp"
#include "trace/tracer.hpp"
#include "traffic/generator.hpp"

namespace ofar {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---- deterministic sampling ----

TEST(TraceSampling, DenominatorOneSamplesEverything) {
  for (u64 seq = 0; seq < 1000; ++seq) {
    EXPECT_TRUE(trace::should_sample(seq, 0));
    EXPECT_TRUE(trace::should_sample(seq, 1));
  }
}

TEST(TraceSampling, IsPureAndRoughlyUniform) {
  u64 hits = 0;
  for (u64 seq = 0; seq < 64000; ++seq) {
    const bool s = trace::should_sample(seq, 64);
    EXPECT_EQ(s, trace::should_sample(seq, 64));  // pure in (seq, denom)
    hits += s ? 1 : 0;
  }
  // 1/64 of 64000 = 1000 expected; the hash should not be wildly biased.
  EXPECT_GT(hits, 700u);
  EXPECT_LT(hits, 1300u);
}

// ---- trace-stream determinism across sim_threads ----

SimConfig sharded_cfg(RingKind ring) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.seed = 12345;
  cfg.routing = RoutingKind::kOfar;
  cfg.ring = ring;
  cfg.sim_shards = 4;
  return cfg;
}

/// Serializes every sampled TraceEvent (provenance included) into one
/// string: any cross-thread reordering or field divergence changes it.
std::string trace_stream(const SimConfig& cfg, unsigned sim_threads,
                         u32 sample) {
  Network net(cfg);
  net.set_sim_threads(sim_threads);
  net.set_trace_sampling(sample);
  std::string stream;
  u64 events = 0;
  net.set_tracer([&](const TraceEvent& ev) {
    JsonWriter w;
    trace::append_event_json(w, ev);
    stream += w.str();
    stream += '\n';
    ++events;
  });
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::adversarial(1), 0.7, cfg.seed));
  net.run(1500);
  EXPECT_GT(events, 100u);
  return stream;
}

TEST(TraceThreadDeterminism, PhysicalRingStreamBitIdentical) {
  const SimConfig cfg = sharded_cfg(RingKind::kPhysical);
  const std::string one = trace_stream(cfg, 1, 4);
  EXPECT_EQ(one, trace_stream(cfg, 2, 4));
  EXPECT_EQ(one, trace_stream(cfg, 4, 4));
}

TEST(TraceThreadDeterminism, EmbeddedRingStreamBitIdentical) {
  const SimConfig cfg = sharded_cfg(RingKind::kEmbedded);
  const std::string one = trace_stream(cfg, 1, 4);
  EXPECT_EQ(one, trace_stream(cfg, 2, 4));
  EXPECT_EQ(one, trace_stream(cfg, 4, 4));
}

TEST(TraceThreadDeterminism, SampledStreamIsSubsetOfFullStream) {
  // Sampling must only drop whole packets, never reorder the survivors:
  // the 1-in-4 stream's events all appear, in order, in the full stream.
  const SimConfig cfg = sharded_cfg(RingKind::kPhysical);
  std::vector<u64> full, sampled;
  auto collect = [&cfg](u32 sample, std::vector<u64>& out) {
    Network net(cfg);
    net.set_trace_sampling(sample);
    net.set_tracer([&](const TraceEvent& ev) {
      out.push_back((ev.seq << 8) | static_cast<u64>(ev.kind));
    });
    net.set_traffic(std::make_unique<BernoulliSource>(
        TrafficPattern::adversarial(1), 0.5, cfg.seed));
    net.run(800);
  };
  collect(1, full);
  collect(4, sampled);
  ASSERT_GT(sampled.size(), 0u);
  ASSERT_LT(sampled.size(), full.size());
  std::size_t i = 0;
  for (const u64 key : full) {
    if (i < sampled.size() && sampled[i] == key) ++i;
  }
  EXPECT_EQ(i, sampled.size()) << "sampled stream is not an ordered subset";
}

// ---- routing-decision provenance ----

struct Crafted {
  std::unique_ptr<Network> net;
  RouterId at = 0;       ///< carrier router of the group-0 -> group-1 link
  PortId gport = 0;      ///< that global port (the minimal output)
  NodeId src = 0;        ///< a node on `at`
  NodeId dst = 0;        ///< a node in group 1 (minimal route uses gport)
  Packet pkt;
};

/// Drives one crafted route() query the way do_allocation does: a CreditView
/// bound to the router under test, wrapped with the packet into a
/// RouteContext (in_vc 0, lane 0 — the serial kernel's values).
RouteChoice call_route(Network& net, RouterId at, PortId in_port, Packet& pkt,
                       RouteProvenance* prov) {
  CreditView view;
  view.init(net);
  view.bind(net.router(at));
  RouteContext ctx{net, view, at, in_port, 0, pkt, 0, prov};
  return net.policy().route(ctx);
}

Crafted crafted_congestion(RoutingKind routing) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.seed = 7;
  cfg.routing = routing;
  cfg.ring = RingKind::kPhysical;
  Crafted c;
  c.net = std::make_unique<Network>(cfg);
  const Dragonfly& topo = c.net->topo();
  c.at = topo.carrier_router(0, 1);
  c.gport = topo.carrier_port(0, 1);
  for (NodeId n = 0; n < topo.nodes(); ++n) {
    if (topo.router_of_node(n) == c.at) {
      c.src = n;
      break;
    }
  }
  for (NodeId n = 0; n < topo.nodes(); ++n) {
    if (topo.group_of(topo.router_of_node(n)) == 1) {
      c.dst = n;
      break;
    }
  }
  c.pkt.src = c.src;
  c.pkt.dst = c.dst;
  c.pkt.dst_router = topo.router_of_node(c.dst);
  // Jam the minimal output: zero credits on every VC makes it unavailable
  // and fully occupied, so the misroute threshold condition fires.
  for (auto& credits : c.net->router(c.at).outputs[c.gport].credits)
    credits = 0;
  return c;
}

TEST(RouteProvenanceTest, MinimalConditionWhenUncongested) {
  Crafted c = crafted_congestion(RoutingKind::kOfar);
  // Restore the drained credits: minimal must win on an idle network.
  Network fresh(c.net->config());
  RouteProvenance prov;
  const RouteChoice choice = call_route(
      fresh, c.at, fresh.topo().node_port(fresh.topo().node_slot(c.src)),
      c.pkt, &prov);
  ASSERT_TRUE(choice.valid);
  EXPECT_EQ(choice.misroute, MisrouteKind::kNone);
  EXPECT_EQ(grant_condition(choice, c.pkt), RouteCondition::kMinimal);
  EXPECT_EQ(prov.min_port, c.gport);
  EXPECT_EQ(choice.out_port, prov.min_port);
  EXPECT_EQ(prov.q_min, 0.0f);
}

TEST(RouteProvenanceTest, InjectionQueueMisroutesGloballyAndRecordsIt) {
  Crafted c = crafted_congestion(RoutingKind::kOfar);
  const Dragonfly& topo = c.net->topo();
  RouteProvenance prov;
  const RouteChoice choice = call_route(
      *c.net, c.at, topo.node_port(topo.node_slot(c.src)), c.pkt, &prov);
  ASSERT_TRUE(choice.valid);
  // Injection-queue packets in the source group misroute globally (§IV-A).
  ASSERT_EQ(choice.misroute, MisrouteKind::kGlobal);
  EXPECT_EQ(grant_condition(choice, c.pkt), RouteCondition::kMisrouteGlobal);
  EXPECT_EQ(prov.min_port, c.gport);
  EXPECT_GE(prov.q_min, 1.0f);  // fully occupied minimal output
  EXPECT_LT(prov.chosen_occ, prov.q_min);
  ASSERT_GT(prov.num_candidates, 0u);
  bool chosen_listed = false;
  for (u32 i = 0; i < prov.num_candidates; ++i)
    chosen_listed |= prov.candidates[i] == choice.out_port;
  EXPECT_TRUE(chosen_listed) << "chosen port missing from candidate list";
  EXPECT_EQ(topo.port_class(choice.out_port), PortClass::kGlobal);
}

TEST(RouteProvenanceTest, TransitQueueMisroutesLocallyAndRecordsIt) {
  Crafted c = crafted_congestion(RoutingKind::kOfar);
  const Dragonfly& topo = c.net->topo();
  RouteProvenance prov;
  const RouteChoice choice =
      call_route(*c.net, c.at, topo.first_local_port(), c.pkt, &prov);
  ASSERT_TRUE(choice.valid);
  // Transit queues try local misroute first (§IV-A starvation rule).
  ASSERT_EQ(choice.misroute, MisrouteKind::kLocal);
  EXPECT_EQ(grant_condition(choice, c.pkt), RouteCondition::kMisrouteLocal);
  EXPECT_EQ(topo.port_class(choice.out_port), PortClass::kLocal);
  bool chosen_listed = false;
  for (u32 i = 0; i < prov.num_candidates; ++i)
    chosen_listed |= prov.candidates[i] == choice.out_port;
  EXPECT_TRUE(chosen_listed);
}

TEST(RouteProvenanceTest, OfarLRecordsGlobalEvenFromTransitQueue) {
  Crafted c = crafted_congestion(RoutingKind::kOfarL);
  const Dragonfly& topo = c.net->topo();
  RouteProvenance prov;
  const RouteChoice choice =
      call_route(*c.net, c.at, topo.first_local_port(), c.pkt, &prov);
  ASSERT_TRUE(choice.valid);
  ASSERT_EQ(choice.misroute, MisrouteKind::kGlobal);  // local disabled
  EXPECT_EQ(grant_condition(choice, c.pkt), RouteCondition::kMisrouteGlobal);
}

TEST(RouteProvenanceTest, WaitAtDestinationRecordsWaitBusy) {
  Crafted c = crafted_congestion(RoutingKind::kOfar);
  const Dragonfly& topo = c.net->topo();
  const RouterId dst_router = c.pkt.dst_router;
  const PortId eject = topo.node_port(topo.node_slot(c.dst));
  for (auto& credits : c.net->router(dst_router).outputs[eject].credits)
    credits = 0;
  RouteProvenance prov;
  const RouteChoice choice =
      call_route(*c.net, dst_router, topo.first_local_port(), c.pkt, &prov);
  EXPECT_FALSE(choice.valid);
  EXPECT_EQ(prov.min_port, eject);
}

TEST(RouteProvenanceTest, NullProvenanceChangesNothing) {
  // The prov out-param must never affect the decision (or RNG draws):
  // identical crafted calls with and without it pick the same port.
  Crafted a = crafted_congestion(RoutingKind::kOfar);
  Crafted b = crafted_congestion(RoutingKind::kOfar);
  const Dragonfly& topo = a.net->topo();
  const PortId in = topo.node_port(topo.node_slot(a.src));
  RouteProvenance prov;
  const RouteChoice with = call_route(*a.net, a.at, in, a.pkt, &prov);
  const RouteChoice without = call_route(*b.net, b.at, in, b.pkt, nullptr);
  EXPECT_EQ(with.out_port, without.out_port);
  EXPECT_EQ(with.out_vc, without.out_vc);
  EXPECT_EQ(with.misroute, without.misroute);
}

// Every packet of a short h=2 run under ADV+1 at 0.6 traced, and its grants
// counted by routing condition. This point reaches every condition each
// mechanism can produce: all six for OFAR, all but misroute_local for
// OFAR-L, minimal and valiant_phase for the Valiant family. A change to how
// a condition is derived, or to a decision, moves these counts.
TEST(RouteProvenanceTest, GrantConditionsArePinnedPerMechanism) {
  using Counts = std::map<std::string, u64>;
  const struct {
    RoutingKind routing;
    RingKind ring;
    Counts grants;
  } pins[] = {
      {RoutingKind::kMin, RingKind::kNone, {{"minimal", 4265}}},
      {RoutingKind::kVal,
       RingKind::kNone,
       {{"minimal", 11250}, {"valiant_phase", 8783}}},
      {RoutingKind::kPb,
       RingKind::kNone,
       {{"minimal", 13875}, {"valiant_phase", 8293}}},
      {RoutingKind::kUgal,
       RingKind::kNone,
       {{"minimal", 11560}, {"valiant_phase", 5154}}},
      {RoutingKind::kPar,
       RingKind::kNone,
       {{"minimal", 13366}, {"valiant_phase", 8593}}},
      {RoutingKind::kOfar,
       RingKind::kPhysical,
       {{"minimal", 15563},
        {"misroute_global", 4251},
        {"misroute_local", 4724},
        {"ring_enter", 1089},
        {"ring_exit", 991},
        {"ring_ride", 1604}}},
      {RoutingKind::kOfarL,
       RingKind::kPhysical,
       {{"minimal", 13268},
        {"misroute_global", 3448},
        {"ring_enter", 1158},
        {"ring_exit", 1073},
        {"ring_ride", 1551}}},
      {RoutingKind::kOfar,
       RingKind::kEmbedded,
       {{"minimal", 14662},
        {"misroute_global", 4557},
        {"misroute_local", 4575},
        {"ring_enter", 344},
        {"ring_exit", 274},
        {"ring_ride", 196}}},
  };
  for (const auto& pin : pins) {
    SimConfig cfg;
    cfg.h = 2;
    cfg.seed = 1;
    cfg.routing = pin.routing;
    cfg.ring = pin.ring;
    if (pin.routing == RoutingKind::kPar) cfg.vcs_local = 4;
    SCOPED_TRACE(std::string(to_string(cfg.routing)) + " " +
                 to_string(cfg.ring));
    Network net(cfg);
    net.set_trace_sampling(1);
    Counts grants;
    net.set_tracer([&](const TraceEvent& ev) {
      if (ev.kind == TraceEvent::Kind::kGrant)
        ++grants[to_string(ev.prov.condition)];
    });
    net.set_traffic(std::make_unique<BernoulliSource>(
        TrafficPattern::adversarial(1), 0.6, cfg.seed));
    net.run(300 + 900);
    EXPECT_EQ(grants, pin.grants);
  }
}

// ---- PacketTracer end to end ----

TEST(PacketTracerTest, WritesPerfettoJsonAndLinkSeries) {
  const fs::path dir = fs::path(::testing::TempDir()) / "tracer_e2e";
  fs::create_directories(dir);
  SimConfig cfg;
  cfg.h = 2;
  cfg.seed = 99;
  cfg.routing = RoutingKind::kOfar;
  cfg.ring = RingKind::kPhysical;
  trace::TracerConfig tc;
  tc.out_path = (dir / "trace.json").string();
  tc.sample = 1;
  tc.label = "unit|OFAR";
  {
    Network net(cfg);
    net.enable_tracing(tc);
    ASSERT_NE(net.packet_tracer(), nullptr);
    net.set_traffic(std::make_unique<BernoulliSource>(
        TrafficPattern::adversarial(1), 0.3, cfg.seed));
    net.run(1200);
    EXPECT_GT(net.packet_tracer()->events_seen(), 100u);
    EXPECT_GT(net.packet_tracer()->journeys_completed(), 10u);
  }  // ~Network -> ~PacketTracer -> finish(): exporters run here
  const std::string trace = slurp(tc.out_path);
  ASSERT_FALSE(trace.empty());
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"condition\""), std::string::npos);
  EXPECT_NE(trace.find("minimal"), std::string::npos);
  EXPECT_NE(trace.find("\"label\":\"unit|OFAR\""), std::string::npos);
}

TEST(PacketTracerTest, DisabledTracingLeavesResultsIdentical) {
  // The acceptance bar: tracing off -> bit-identical, tracing on -> still
  // bit-identical results (it is read-only instrumentation either way).
  const fs::path dir = fs::path(::testing::TempDir()) / "tracer_inert";
  fs::create_directories(dir);
  auto run = [&](bool traced) {
    SimConfig cfg;
    cfg.h = 2;
    cfg.seed = 31;
    cfg.routing = RoutingKind::kOfar;
    cfg.ring = RingKind::kPhysical;
    Network net(cfg);
    if (traced) {
      trace::TracerConfig tc;
      tc.out_path = (dir / "t.json").string();
      tc.sample = 8;
      net.enable_tracing(tc);
    }
    net.set_traffic(std::make_unique<BernoulliSource>(
        TrafficPattern::adversarial(1), 0.4, cfg.seed));
    net.run(1500);
    const Stats& s = net.stats();
    return std::make_tuple(s.delivered_packets(), s.latency().sum,
                           s.global_misroutes(), s.ring_entries());
  };
  EXPECT_EQ(run(false), run(true));
}

// ---- orchestrator integration: instrumentation-only, per-point files ----

RunPoint steady_point(u64 seed) {
  RunPoint p;
  p.kind = RunKind::kSteady;
  p.mechanism = "OFAR";
  p.case_name = "ADV+1";
  p.seed = seed;
  p.cfg.h = 2;
  p.cfg.seed = seed;
  p.cfg.routing = RoutingKind::kOfar;
  p.cfg.ring = RingKind::kPhysical;
  p.pattern = TrafficPattern::adversarial(1);
  p.load = 0.15;
  p.run = RunParams::windows(400, 800);
  return p;
}

// Every packet of an h=2 OFAR run under ADV+1 at 0.9 traced, once per ring
// kind: at this load packets enter and leave the escape ring, so the file
// holds ring_enter/ring_exit instants beside the hop spans, queued spans,
// metadata and delivery instants. A change to any byte the exporter
// writes moves these digests.
TEST(PacketTracerTest, PerfettoBytesArePinned) {
  const fs::path dir = fs::path(::testing::TempDir()) / "tracer_pin";
  fs::create_directories(dir);
  const struct {
    RingKind ring;
    const char* digest;
  } pins[] = {{RingKind::kPhysical, "51a9923fdb00fceae66a87c52315f8b5"},
              {RingKind::kEmbedded, "ada96cf862a683179d133a100eb6774c"}};
  for (const auto& pin : pins) {
    SCOPED_TRACE(to_string(pin.ring));
    RunPoint p = steady_point(1);
    p.cfg.ring = pin.ring;
    p.load = 0.9;
    p.run = RunParams::windows(300, 900);
    OrchestratorOptions oo;
    oo.instrumentation.trace_out =
        (dir / (std::string("trace.") + to_string(pin.ring) + ".json"))
            .string();
    oo.instrumentation.trace_sample = 1;
    ASSERT_TRUE(run_points({p}, oo).complete());
    const std::string bytes = slurp(oo.instrumentation.trace_out);
    fs::remove(oo.instrumentation.trace_out);  // ~15 MB each
    EXPECT_NE(bytes.find("\"name\":\"ring_enter\""), std::string::npos);
    EXPECT_NE(bytes.find("\"name\":\"ring_exit\""), std::string::npos);
    EXPECT_EQ(content_digest(bytes), pin.digest);
  }
}

TEST(TraceOrchestration, TraceKnobsDoNotChangeKeysOrResults) {
  const fs::path dir = fs::path(::testing::TempDir()) / "trace_orch1";
  fs::create_directories(dir);
  const std::vector<RunPoint> points{steady_point(5)};

  OrchestratorOptions plain;  // no cache: every run executes
  const RunReport a = run_points(points, plain);

  OrchestratorOptions traced = plain;
  traced.instrumentation.trace_out = (dir / "trace.json").string();
  traced.instrumentation.trace_sample = 1;
  const RunReport b = run_points(points, traced);

  ASSERT_TRUE(a.complete());
  ASSERT_TRUE(b.complete());
  EXPECT_EQ(a.outcomes[0].key, b.outcomes[0].key);
  EXPECT_EQ(results_digest(points, a), results_digest(points, b));
  // A single executed point writes the requested path verbatim.
  EXPECT_TRUE(fs::exists(dir / "trace.json"));
}

TEST(TraceOrchestration, MultiPointRunsWritePerPointFiles) {
  const fs::path dir = fs::path(::testing::TempDir()) / "trace_orch2";
  fs::create_directories(dir);
  const std::vector<RunPoint> points{steady_point(5), steady_point(6)};
  OrchestratorOptions oo;
  oo.instrumentation.trace_out = (dir / "trace.json").string();
  oo.instrumentation.trace_sample = 4;
  const RunReport r = run_points(points, oo);
  ASSERT_TRUE(r.complete());
  // The verbatim path must NOT be used (parallel points would race on it);
  // instead each point gets a label+seed tagged file.
  EXPECT_FALSE(fs::exists(dir / "trace.json"));
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    EXPECT_NE(e.path().filename().string().find("trace."),
              std::string::npos);
    ++files;
  }
  EXPECT_EQ(files, 2u);
}

}  // namespace
}  // namespace ofar
