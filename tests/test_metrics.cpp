// Tests for the opt-in telemetry layer (stats/metrics.*, stats/sink.*):
// phase-profiler accounting, JSONL record validity and pinned bytes,
// exact per-link records, deadlock forensics on a wedged network, and the
// determinism guard (telemetry must never perturb the simulation).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "sim/network.hpp"
#include "stats/metrics.hpp"
#include "stats/sink.hpp"
#include "traffic/generator.hpp"
#include "traffic/pattern.hpp"
#include "verify/wait_graph.hpp"

namespace ofar {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON validator: a recursive-descent parser that accepts exactly
// RFC 8259 values. Used to check that every emitted JSONL line is
// machine-parseable, without pulling a JSON dependency into the repo.
// ---------------------------------------------------------------------------
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_])))
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_)
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t')) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// Value of the top-level `"type":"..."` field (the writer emits it first).
std::string record_type(const std::string& line) {
  const std::string key = "\"type\":\"";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return "";
  const std::size_t start = at + key.size();
  const std::size_t end = line.find('"', start);
  return end == std::string::npos ? "" : line.substr(start, end - start);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// RAII temp file: removed on scope exit.
struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

SimConfig small_config(u64 seed) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.seed = seed;
  cfg.routing = RoutingKind::kOfar;
  cfg.ring = RingKind::kPhysical;
  return cfg;
}

// ---------------------------------------------------------------------------
// Phase profiler
// ---------------------------------------------------------------------------

TEST(PhaseProfiler, ExactCountsAndMonotonicSeconds) {
  PhaseProfiler prof(/*sample_period=*/1);
  double secs_mid = -1.0;
  for (Cycle c = 0; c < 10; ++c) {
    prof.start_cycle(c);
    prof.phase_done(SimPhase::kEventDelivery);
    prof.phase_done(SimPhase::kDeliveryCommit);
    prof.phase_done(SimPhase::kPolicyTick);
    prof.phase_done(SimPhase::kTransfersAllocation);
    prof.phase_done(SimPhase::kStagingCommit);
    prof.phase_done(SimPhase::kInjection);
    const bool watchdog = (c == 7);
    if (watchdog) prof.phase_done(SimPhase::kWatchdog);
    prof.end_cycle(watchdog);
    if (c == 4) secs_mid = prof.seconds(SimPhase::kTransfersAllocation);
  }

  EXPECT_EQ(prof.cycles(), 10u);
  EXPECT_EQ(prof.sampled_cycles(), 10u);  // period 1: every cycle timed
  EXPECT_EQ(prof.invocations(SimPhase::kTransfersAllocation), 10u);
  EXPECT_EQ(prof.invocations(SimPhase::kWatchdog), 1u);
  EXPECT_EQ(prof.sampled_invocations(SimPhase::kWatchdog), 1u);

  // steady_clock is monotonic: accumulated time never decreases and the
  // final value is at least the mid-run reading.
  EXPECT_GE(secs_mid, 0.0);
  EXPECT_GE(prof.seconds(SimPhase::kTransfersAllocation), secs_mid);
  // With every invocation sampled the estimate *is* the measurement.
  EXPECT_DOUBLE_EQ(
      prof.estimated_total_seconds(SimPhase::kTransfersAllocation),
      prof.seconds(SimPhase::kTransfersAllocation));
}

TEST(PhaseProfiler, SamplingScalesEstimate) {
  PhaseProfiler prof(/*sample_period=*/4);
  for (Cycle c = 0; c < 16; ++c) {
    prof.start_cycle(c);
    prof.phase_done(SimPhase::kTransfersAllocation);
    prof.end_cycle(false);
  }
  EXPECT_EQ(prof.cycles(), 16u);
  EXPECT_EQ(prof.sampled_cycles(), 4u);  // cycles 0, 4, 8, 12
  // estimate = sampled seconds * 16/4.
  EXPECT_DOUBLE_EQ(
      prof.estimated_total_seconds(SimPhase::kTransfersAllocation),
      prof.seconds(SimPhase::kTransfersAllocation) * 4.0);
}

TEST(PhaseProfiler, PeriodZeroCountsOnly) {
  PhaseProfiler prof(0);
  for (Cycle c = 0; c < 5; ++c) {
    prof.start_cycle(c);
    prof.phase_done(SimPhase::kTransfersAllocation);
    prof.end_cycle(false);
  }
  EXPECT_EQ(prof.cycles(), 5u);
  EXPECT_EQ(prof.sampled_cycles(), 0u);
  EXPECT_DOUBLE_EQ(prof.seconds(SimPhase::kTransfersAllocation), 0.0);
  EXPECT_DOUBLE_EQ(
      prof.estimated_total_seconds(SimPhase::kTransfersAllocation), 0.0);
}

TEST(PhaseProfiler, StepTimesEveryPhaseItRuns) {
  // The profiler lives inside the one Network::step(): every cycle passes
  // each phase boundary once (drained cycles too, with near-zero time),
  // and only the watchdog phase is periodic.
  TempFile tmp("test_metrics_phases.jsonl");
  constexpr Cycle kCycles = 4'100;  // the watchdog runs at cycle 4096
  {
    auto sink = MetricsSink::open(tmp.path);
    ASSERT_NE(sink, nullptr);
    Network net(small_config(11));
    TelemetryConfig tc;
    tc.sink = sink.get();
    tc.interval = 10'000;  // no interval record: the summary is the subject
    tc.phase_sample_period = 1;
    net.enable_telemetry(tc);
    net.set_traffic(std::make_unique<BernoulliSource>(
        TrafficPattern::uniform(), 0.2, 11));
    net.run(kCycles);
    const PhaseProfiler& prof = net.telemetry()->profiler();
    EXPECT_EQ(prof.cycles(), kCycles);
    EXPECT_EQ(prof.sampled_cycles(), kCycles);
    for (u32 i = 0; i < kNumSimPhases; ++i) {
      const SimPhase p = static_cast<SimPhase>(i);
      EXPECT_EQ(prof.invocations(p), p == SimPhase::kWatchdog ? 1u : kCycles)
          << to_string(p);
      EXPECT_EQ(prof.sampled_invocations(p), prof.invocations(p))
          << to_string(p);
    }
    net.telemetry()->write_summary(net);
  }

  std::string summary;
  for (const auto& line : read_lines(tmp.path))
    if (record_type(line) == "summary") summary = line;
  ASSERT_FALSE(summary.empty());
  const char* const names[] = {
      "event_delivery", "delivery_commit", "policy_tick",
      "transfers_allocation", "staging_commit", "injection", "watchdog"};
  ASSERT_EQ(std::size(names), std::size_t{kNumSimPhases});
  std::size_t at = summary.find("\"phases\":[");
  ASSERT_NE(at, std::string::npos);
  for (const char* name : names) {
    const std::string entry =
        std::string("{\"name\":\"") + name + "\",\"invocations\":" +
        (std::string(name) == "watchdog" ? "1" : std::to_string(kCycles));
    const std::size_t next = summary.find(entry, at);
    ASSERT_NE(next, std::string::npos) << entry << " after offset " << at;
    at = next;
  }
}

// ---------------------------------------------------------------------------
// JSONL sink output
// ---------------------------------------------------------------------------

TEST(Telemetry, JsonlRecordsAreValidJson) {
  TempFile tmp("test_metrics_out.jsonl");
  {
    auto sink = MetricsSink::open(tmp.path);
    ASSERT_NE(sink, nullptr);

    Network net(small_config(42));
    TelemetryConfig tc;
    tc.sink = sink.get();
    tc.interval = 500;
    tc.label = "jsonl \"test\"";  // exercises string escaping
    tc.full_dump = true;
    net.enable_telemetry(tc);
    net.set_traffic(std::make_unique<BernoulliSource>(
        TrafficPattern::uniform(), 0.3, 42));
    net.run(2'200);
    net.telemetry()->write_summary(net);

    EXPECT_EQ(net.telemetry()->samples_taken(), 4u);  // cycles 500..2000
  }  // sink closes (flushes) here

  const auto lines = read_lines(tmp.path);
  ASSERT_FALSE(lines.empty());
  std::size_t intervals = 0, summaries = 0;
  for (const auto& line : lines) {
    JsonValidator v(line);
    EXPECT_TRUE(v.valid()) << "invalid JSON: " << line;
    const std::string type = record_type(line);
    EXPECT_FALSE(type.empty()) << line;
    if (type == "interval") ++intervals;
    if (type == "summary") ++summaries;
  }
  EXPECT_EQ(intervals, 4u);
  EXPECT_EQ(summaries, 1u);
  // The escaped label survives round-trip on every record.
  for (const auto& line : lines)
    EXPECT_NE(line.find("jsonl \\\"test\\\""), std::string::npos) << line;
}

/// A record with its wall-clock values zeroed: the number after each key
/// that ends in "seconds" ("phase.<name>.seconds", "sampled_seconds" and
/// "estimated_seconds"). Everything else a telemetry record holds is a
/// function of the seed.
std::string mask_wall_clock(const std::string& line) {
  const std::string key = "seconds\":";
  std::string out;
  std::size_t at = 0;
  for (std::size_t k; (k = line.find(key, at)) != std::string::npos;) {
    out.append(line, at, k + key.size() - at).push_back('0');
    at = line.find_first_not_of("-+.0123456789eE", k + key.size());
    if (at == std::string::npos) at = line.size();
  }
  return out.append(line, at, std::string::npos);
}

TEST(Telemetry, MaskedRecordsArePinned) {
  // Every record type, byte for byte: a saturated point with a full dump
  // and a forensics trip, then a drained burst whose tail takes the
  // quiescent path. The digest covers every key, its order and every
  // printed value, so a change to what telemetry writes shows up here.
  TempFile tmp("test_metrics_pinned.jsonl");
  {
    auto sink = MetricsSink::open(tmp.path);
    ASSERT_NE(sink, nullptr);
    SimConfig cfg = small_config(3);
    cfg.deadlock_timeout = 8;
    Network a(cfg);
    TelemetryConfig tc;
    tc.sink = sink.get();
    tc.interval = 1'000;
    tc.label = "saturated";
    tc.full_dump = true;
    a.enable_telemetry(tc);
    a.set_traffic(std::make_unique<BernoulliSource>(
        TrafficPattern::uniform(), 1.0, 3));
    a.run(4'200);  // past the first watchdog scan at cycle 4096
    a.telemetry()->write_summary(a);

    Network b(small_config(5));
    tc.interval = 500;
    tc.label = "burst";
    tc.full_dump = false;
    b.enable_telemetry(tc);
    b.set_traffic(std::make_unique<BurstSource>(
        TrafficPattern::adversarial(1), 4, 5));
    b.run(3'000);
    b.telemetry()->write_summary(b);
  }
  u64 digest = 14695981039346656037ULL;  // FNV-1a over the masked lines
  std::size_t records = 0;
  for (const auto& line : read_lines(tmp.path)) {
    for (const char c : mask_wall_clock(line) + '\n') {
      digest ^= static_cast<unsigned char>(c);
      digest *= 1099511628211ULL;
    }
    ++records;
  }
  EXPECT_EQ(records, 21u);
  EXPECT_EQ(digest, 0xf085dce85556b02fULL) << std::hex << digest;
}

TEST(Telemetry, RegistryTracksNetworkState) {
  Network net(small_config(7));
  TelemetryConfig tc;  // sink stays null: in-memory sampling only
  tc.interval = 250;
  net.enable_telemetry(tc);
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::uniform(), 0.4, 7));
  net.run(1'000);

  const IntervalMetrics& m = net.telemetry()->last_sample();
  // The last interval snapshot landed exactly on cycle 1000.
  EXPECT_DOUBLE_EQ(m.cycle, 1000.0);
  EXPECT_DOUBLE_EQ(m.interval_cycles, 250.0);
  EXPECT_GT(m.generated, 0.0);
  // Counters mirror Stats at the snapshot; both only grow.
  EXPECT_LE(m.delivered, static_cast<double>(net.stats().delivered_packets()));
  EXPECT_EQ(net.telemetry()->samples_taken(), 4u);
}

TEST(Telemetry, LinkRecordsAreExact) {
  // The `links` records of a full dump are the one source of per-link
  // utilisation. Summed over the run, each channel's phits must equal the
  // kernel's exact counter; each interval's class gauges must equal that
  // class's phits over (wired links x interval).
  TempFile tmp("test_metrics_links.jsonl");
  SimConfig cfg;
  cfg.h = 3;
  cfg.seed = 5;
  cfg.routing = RoutingKind::kOfar;
  cfg.ring = RingKind::kPhysical;
  constexpr Cycle kEnableAt = 300;
  constexpr Cycle kInterval = 250;
  constexpr u64 kIntervals = 4;
  std::vector<u64> sent;  // per channel, phits carried while enabled
  std::vector<ChannelClass> cls;
  u64 wired_local = 0, wired_global = 0;
  {
    auto sink = MetricsSink::open(tmp.path);
    ASSERT_NE(sink, nullptr);
    Network net(cfg);
    net.set_traffic(std::make_unique<BernoulliSource>(
        TrafficPattern::adversarial(1), 0.5, cfg.seed));
    net.run(kEnableAt);
    for (ChannelId c = 0; c < net.num_channels(); ++c)
      sent.push_back(net.channel_phits(c));
    TelemetryConfig tc;
    tc.sink = sink.get();
    tc.interval = kInterval;
    tc.full_dump = true;
    net.enable_telemetry(tc);
    net.run(kInterval * kIntervals);
    ASSERT_EQ(net.telemetry()->samples_taken(), kIntervals);
    for (ChannelId c = 0; c < net.num_channels(); ++c) {
      sent[c] = net.channel_phits(c) - sent[c];
      // An unwired slot has no descriptor and carries nothing; the class
      // it gets here is never counted.
      cls.push_back(net.channel_wired(c) ? net.channel(c).cls
                                         : ChannelClass::kEjection);
      if (!net.channel_wired(c)) continue;
      wired_local += cls[c] == ChannelClass::kLocal ? 1 : 0;
      wired_global += cls[c] == ChannelClass::kGlobal ? 1 : 0;
    }
  }
  ASSERT_GT(wired_local, 0u);
  ASSERT_GT(wired_global, 0u);

  std::vector<u64> summed(sent.size(), 0);
  // cycle -> phits carried that interval by local / global links
  std::map<u64, std::pair<u64, u64>> class_phits;
  std::map<u64, std::pair<double, double>> gauges;  // cycle -> local, global
  for (const std::string& line : read_lines(tmp.path)) {
    JsonValue rec;
    std::string error;
    ASSERT_TRUE(json_parse(line, rec, error)) << error << ": " << line;
    const std::string type = rec.find("type")->as_string();
    const u64 cycle = static_cast<u64>(rec.find("cycle")->as_int());
    if (type == "links") {
      auto& [local, global] = class_phits[cycle];
      for (const JsonValue& l : rec.find("links")->items()) {
        const auto c = static_cast<ChannelId>(l.find("channel")->as_int());
        const auto phits = static_cast<u64>(l.find("phits")->as_int());
        ASSERT_LT(c, summed.size());
        summed[c] += phits;
        local += cls[c] == ChannelClass::kLocal ? phits : 0;
        global += cls[c] == ChannelClass::kGlobal ? phits : 0;
      }
    } else if (type == "interval") {
      const JsonValue& m = *rec.find("metrics");
      gauges[cycle] = {m.find("link.util.local")->as_double(),
                       m.find("link.util.global")->as_double()};
    }
  }

  u64 total = 0;
  for (ChannelId c = 0; c < sent.size(); ++c) {
    EXPECT_EQ(summed[c], sent[c]) << "channel " << c;
    total += summed[c];
  }
  EXPECT_GT(total, 0u);
  ASSERT_EQ(gauges.size(), kIntervals);
  ASSERT_EQ(class_phits.size(), kIntervals);
  const auto util = [&](u64 phits, u64 links) {
    return static_cast<double>(phits) /
           (static_cast<double>(links) * static_cast<double>(kInterval));
  };
  for (const auto& [cycle, g] : gauges) {
    ASSERT_EQ(class_phits.count(cycle), 1u) << "cycle " << cycle;
    const auto& [local, global] = class_phits[cycle];
    EXPECT_EQ(g.first, util(local, wired_local)) << "cycle " << cycle;
    EXPECT_EQ(g.second, util(global, wired_global)) << "cycle " << cycle;
  }
}

// ---------------------------------------------------------------------------
// Deadlock forensics
// ---------------------------------------------------------------------------

TEST(Telemetry, ForensicsOnWedgedNetwork) {
  // Saturate a small network and declare any head older than 8 cycles
  // "stalled": by the first watchdog scan (cycle 4096) the network is
  // congested enough that the trip is guaranteed, exercising the forensic
  // dump path without needing a true deadlock.
  TempFile tmp("test_metrics_forensics.jsonl");
  auto sink = MetricsSink::open(tmp.path);
  ASSERT_NE(sink, nullptr);

  SimConfig cfg = small_config(3);
  cfg.deadlock_timeout = 8;
  Network net(cfg);
  TelemetryConfig tc;
  tc.sink = sink.get();
  tc.interval = 1'000;
  tc.label = "wedge";
  net.enable_telemetry(tc);
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::uniform(), 1.0, 3));
  net.run(4'200);  // past the first watchdog scan at cycle 4096

  const Telemetry* t = net.telemetry();
  ASSERT_GE(t->forensic_dumps(), 1u);
  const std::vector<verify::StallEdge>& edges = t->last_forensics();
  ASSERT_FALSE(edges.empty());
  EXPECT_LE(edges.size(), verify::kMaxForensicEdges);

  const Dragonfly& topo = net.topo();
  for (const verify::StallEdge& e : edges) {
    EXPECT_LT(e.router, topo.routers());
    EXPECT_LT(e.in_port, topo.ports_per_router());
    EXPECT_NE(e.packet, kInvalidPacket);
    EXPECT_GT(e.age, u64{cfg.deadlock_timeout});
    EXPECT_GT(e.arrived_phits, 0u);  // heads only, and a head has phits
    // Every reported edge names the output it waits for.
    EXPECT_NE(e.wait_port, kInvalidPort);
    EXPECT_LT(e.wait_port, topo.ports_per_router());
  }

  // Mark the summary written before releasing the sink: the Telemetry
  // destructor's safety net must not touch a dead sink (the sink is
  // documented to outlive the Network otherwise).
  net.telemetry()->write_summary(net);
  sink.reset();  // flush
  bool saw_forensics = false;
  for (const auto& line : read_lines(tmp.path)) {
    JsonValidator v(line);
    EXPECT_TRUE(v.valid()) << "invalid JSON: " << line;
    if (record_type(line) == "forensics") {
      saw_forensics = true;
      // The record carries at least one structured hold/wait edge.
      EXPECT_NE(line.find("\"edges\":[{"), std::string::npos) << line;
      EXPECT_NE(line.find("\"router\":"), std::string::npos);
      EXPECT_NE(line.find("\"wait_port\":"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_forensics);
}

TEST(Telemetry, ForensicsRateLimit) {
  SimConfig cfg = small_config(3);
  cfg.deadlock_timeout = 8;
  TempFile tmp("test_metrics_rate_limit.jsonl");
  {
    auto sink = MetricsSink::open(tmp.path);
    ASSERT_NE(sink, nullptr);
    Network net(cfg);
    TelemetryConfig tc;
    tc.sink = sink.get();
    tc.interval = 1u << 20;  // no interval record in the run
    net.enable_telemetry(tc);
    net.set_traffic(std::make_unique<BernoulliSource>(
        TrafficPattern::uniform(), 1.0, 3));
    // One watchdog scan more than the cap, every one of them tripping.
    net.run((verify::kMaxForensicDumps + 1) * 4'096 + 64);
    EXPECT_EQ(net.telemetry()->forensic_dumps(), verify::kMaxForensicDumps);
    net.telemetry()->write_summary(net);
  }
  u32 records = 0;
  for (const auto& line : read_lines(tmp.path))
    records += record_type(line) == "forensics" ? 1 : 0;
  EXPECT_EQ(records, verify::kMaxForensicDumps);
}

// ---------------------------------------------------------------------------
// Determinism guard
// ---------------------------------------------------------------------------

/// Every per-seed deterministic Stats field in one comparable tuple.
struct Digest {
  u64 generated, injected, delivered, phits;
  u64 lat_count, lat_min, lat_max;
  double lat_sum;
  u64 ring_in, ring_out, ring_pkts, ring_re;
  u64 mis_l, mis_g, max_hops;

  static Digest of(const Network& net) {
    const Stats& s = net.stats();
    return {s.generated_packets(), s.injected_packets(),
            s.delivered_packets(), s.delivered_phits(),
            s.latency().count,     s.latency().min,
            s.latency().max,       s.latency().sum,
            s.ring_entries(),      s.ring_exits(),
            s.ring_packets(),      s.ring_reentries(),
            s.local_misroutes(),   s.global_misroutes(),
            s.max_hops()};
  }

  bool operator==(const Digest&) const = default;
};

TEST(Telemetry, EnablingTelemetryPreservesDeterminism) {
  const SimConfig cfg = small_config(12345);
  auto run = [&cfg](bool telemetry) {
    Network net(cfg);
    if (telemetry) {
      TelemetryConfig tc;  // in-memory only; timing every cycle to stress
      tc.interval = 100;   // the instrumented step path
      tc.phase_sample_period = 1;
      tc.full_dump = true;
      net.enable_telemetry(tc);
    }
    net.set_traffic(std::make_unique<BernoulliSource>(
        TrafficPattern::adversarial(1), 0.6, cfg.seed));
    net.run(3'000);
    return Digest::of(net);
  };

  const Digest off = run(false);
  const Digest on = run(true);
  EXPECT_TRUE(off == on)
      << "telemetry perturbed the simulation (delivered " << off.delivered
      << " vs " << on.delivered << ")";
  EXPECT_GT(off.delivered, 0u);
}

// Exact stall totals at saturation: every failing route() call notes one
// credit stall and every lost request one allocation stall (OFAR at one
// shard and at four on one and on four threads; PAR, whose failing calls
// draw RNG, at one shard). A change to which heads the kernel routes, or
// to where the stalls are noted, moves these totals.
struct StallGolden {
  const char* name;
  RoutingKind routing;
  bool adversarial;  ///< ADV+1 at 0.8 instead of UN at 1.0
  u32 shards;
  unsigned threads;
  u64 credit_stalls;
  u64 alloc_stalls;
};

void PrintTo(const StallGolden& g, std::ostream* os) { *os << g.name; }

class TelemetryStallGolden : public ::testing::TestWithParam<StallGolden> {};

TEST_P(TelemetryStallGolden, CountsMatchRecordedTotals) {
  const StallGolden& g = GetParam();
  SimConfig cfg;
  cfg.h = 3;
  cfg.seed = 777;
  cfg.routing = g.routing;
  cfg.ring = g.routing == RoutingKind::kOfar ? RingKind::kPhysical
                                             : RingKind::kNone;
  if (g.routing == RoutingKind::kPar) cfg.vcs_local = 4;
  cfg.sim_shards = g.shards;
  Network net(cfg);
  net.set_sim_threads(g.threads);
  net.enable_telemetry(TelemetryConfig{});
  net.set_traffic(std::make_unique<BernoulliSource>(
      g.adversarial ? TrafficPattern::adversarial(1)
                    : TrafficPattern::uniform(),
      g.adversarial ? 0.8 : 1.0, cfg.seed));
  net.run(2'000);
  EXPECT_EQ(net.telemetry()->credit_stall_cycles(), g.credit_stalls);
  EXPECT_EQ(net.telemetry()->alloc_stall_cycles(), g.alloc_stalls);
}

INSTANTIATE_TEST_SUITE_P(
    Saturated, TelemetryStallGolden,
    ::testing::Values(
        StallGolden{"OFAR_UN_K1", RoutingKind::kOfar, false, 1, 1,
                    2948325, 490681},
        StallGolden{"OFAR_ADV1_K1", RoutingKind::kOfar, true, 1, 1,
                    4022315, 857230},
        StallGolden{"OFAR_UN_K4_T1", RoutingKind::kOfar, false, 4, 1,
                    2915413, 481699},
        StallGolden{"OFAR_UN_K4_T4", RoutingKind::kOfar, false, 4, 4,
                    2915413, 481699},
        StallGolden{"OFAR_ADV1_K4_T1", RoutingKind::kOfar, true, 4, 1,
                    3992427, 869046},
        StallGolden{"OFAR_ADV1_K4_T4", RoutingKind::kOfar, true, 4, 4,
                    3992427, 869046},
        StallGolden{"PAR_UN_K1", RoutingKind::kPar, false, 1, 1,
                    3331386, 245956},
        StallGolden{"PAR_ADV1_K1", RoutingKind::kPar, true, 1, 1,
                    2616406, 141262}),
    [](const ::testing::TestParamInfo<StallGolden>& info) {
      return std::string(info.param.name);
    });

TEST(Telemetry, StallCountersAccumulateUnderLoad) {
  Network net(small_config(5));
  TelemetryConfig tc;
  net.enable_telemetry(tc);
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::uniform(), 1.0, 5));
  net.run(2'000);
  // A saturated network necessarily loses some allocations or credits.
  EXPECT_GT(net.telemetry()->credit_stall_cycles() +
                net.telemetry()->alloc_stall_cycles(),
            0u);
}

}  // namespace
}  // namespace ofar
