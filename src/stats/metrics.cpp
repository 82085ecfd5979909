#include "stats/metrics.hpp"

#include <algorithm>

#include "common/json.hpp"
#include "sim/network.hpp"
#include "stats/sink.hpp"

namespace ofar {

const char* to_string(SimPhase p) noexcept {
  switch (p) {
    case SimPhase::kEventDelivery: return "event_delivery";
    case SimPhase::kDeliveryCommit: return "delivery_commit";
    case SimPhase::kPolicyTick: return "policy_tick";
    case SimPhase::kTransfersAllocation: return "transfers_allocation";
    case SimPhase::kStagingCommit: return "staging_commit";
    case SimPhase::kInjection: return "injection";
    case SimPhase::kWatchdog: return "watchdog";
  }
  return "?";
}

namespace {

/// The interval record's metrics, each named once, in record order:
/// f(name, value) for every member of `m`.
template <typename F>
void interval_fields(const IntervalMetrics& m, F&& f) {
  f("sim.cycle", m.cycle);
  f("sim.interval_cycles", m.interval_cycles);
  f("packets.live", m.live);
  f("packets.pending_offers", m.pending_offers);
  f("packets.generated", m.generated);
  f("packets.delivered", m.delivered);
  f("latency.mean", m.latency_mean);
  f("link.util.local", m.util_local);
  f("link.util.global", m.util_global);
  f("link.util.ring", m.util_ring);
  f("link.util.max", m.util_max);
  f("vc.occupancy.mean", m.vc_occupancy_mean);
  f("vc.occupancy.max", m.vc_occupancy_max);
  f("ring.occupancy", m.ring_occupancy);
  f("ring.entries", m.ring_entries);
  f("ring.reentries", m.ring_reentries);
  f("misroute.local", m.misroute_local);
  f("misroute.global", m.misroute_global);
  f("stall.credit_cycles", m.stall_credit_cycles);
  f("stall.alloc_cycles", m.stall_alloc_cycles);
  f("worklist.routers", m.worklist_routers);
  f("worklist.nodes", m.worklist_nodes);
  f("throttled.routers", m.throttled_routers);
  f("watchdog.stalled", m.watchdog_stalled);
  f("watchdog.worst_stall", m.watchdog_worst_stall);
  for (u32 i = 0; i < kNumSimPhases; ++i) {
    const std::string base =
        std::string("phase.") + to_string(static_cast<SimPhase>(i));
    f((base + ".seconds").c_str(), m.phase_seconds[i]);
    f((base + ".invocations").c_str(), m.phase_invocations[i]);
  }
}

}  // namespace

Telemetry::Telemetry(const Network& net, TelemetryConfig cfg)
    : cfg_(std::move(cfg)), net_(&net), prof_(cfg_.phase_sample_period) {
  OFAR_CHECK_MSG(cfg_.interval > 0, "telemetry interval must be positive");
  const Dragonfly& topo = net.topo();
  ports_ = topo.ports_per_router();

  // Flat per-VC index space: vc_base_[r*ports_+p] is the base of the VCs of
  // input port p of router r; the final entry holds the total VC count.
  // Computed from the arithmetic input shape, not router state: under lazy
  // construction most routers have no bound FIFOs yet, and the flat index
  // must not depend on construction order.
  vc_base_.assign(static_cast<std::size_t>(topo.routers()) * ports_ + 1, 0);
  u32 total_vcs = 0;
  for (RouterId r = 0; r < topo.routers(); ++r) {
    for (PortId p = 0; p < ports_; ++p) {
      vc_base_[static_cast<std::size_t>(r) * ports_ + p] = total_vcs;
      u32 vcs = 0, cap = 0;
      net.input_shape(r, p, vcs, cap);
      total_vcs += vcs;
    }
  }
  vc_base_.back() = total_vcs;
  vc_credit_stall_.assign(total_vcs, 0);
  vc_alloc_stall_.assign(total_vcs, 0);

  prev_phits_.assign(net.num_channels(), 0);
  for (ChannelId c = 0; c < net.num_channels(); ++c)
    prev_phits_[c] = net.channel_phits(c);

  last_sample_cycle_ = net.now();
  next_sample_ = net.now() + cfg_.interval;
}

Telemetry::~Telemetry() {
  // Safety net for drivers that never call write_summary explicitly; the
  // Network declares its Telemetry last, so `net_` is still fully alive.
  if (!summary_written_ && cfg_.sink != nullptr && net_ != nullptr)
    write_summary(*net_);
}

void Telemetry::sample(const Network& net, Cycle now) {
  const Cycle width = now - last_sample_cycle_;
  last_sample_cycle_ = now;
  ++samples_;

  const Stats& st = net.stats();
  IntervalMetrics& m = last_;
  m.cycle = static_cast<double>(now);
  m.interval_cycles = static_cast<double>(width);
  m.live = static_cast<double>(net.packets().live_count());
  m.pending_offers = static_cast<double>(net.pending_offers());
  m.generated = static_cast<double>(st.generated_packets());
  m.delivered = static_cast<double>(st.delivered_packets());
  m.latency_mean = st.latency().mean();

  // Quiescence fast path: when the network held zero packets at both ends
  // of the interval and none was generated in between, no phit can have
  // moved and every buffer is empty — all scan results are structurally
  // zero and prev_phits_ is already current, so the O(network) sweeps are
  // skipped. Keeps sampling cost proportional to activity, matching the
  // kernel's worklist philosophy (drain tails sample at ~zero cost).
  const bool idle =
      net.packets().live_count() == 0 && net.pending_offers() == 0;
  const bool quiescent = idle && prev_sample_idle_ &&
                         st.generated_packets() == prev_sample_generated_ &&
                         !(cfg_.full_dump && cfg_.sink != nullptr);
  prev_sample_idle_ = idle;
  prev_sample_generated_ = st.generated_packets();
  if (quiescent) {
    m.util_local = m.util_global = m.util_ring = m.util_max = 0.0;
    m.vc_occupancy_mean = m.vc_occupancy_max = 0.0;
    m.ring_occupancy = 0.0;
    hot_ = Hot{};
    // throttled_routers keeps its previous value: an idle router runs no
    // phase, so its throttle latch cannot have changed since the last
    // sample.
  } else {
    scan(net, width);
  }

  m.ring_entries = static_cast<double>(st.ring_entries());
  m.ring_reentries = static_cast<double>(st.ring_reentries());
  m.misroute_local = static_cast<double>(st.local_misroutes());
  m.misroute_global = static_cast<double>(st.global_misroutes());
  m.stall_credit_cycles = static_cast<double>(credit_stall_cycles());
  m.stall_alloc_cycles = static_cast<double>(alloc_stall_cycles());
  m.worklist_routers = static_cast<double>(net.active_router_count());
  m.worklist_nodes = static_cast<double>(net.active_node_count());
  m.watchdog_stalled = static_cast<double>(st.stalled_packets());
  m.watchdog_worst_stall = static_cast<double>(st.worst_stall());
  for (u32 i = 0; i < kNumSimPhases; ++i) {
    const SimPhase p = static_cast<SimPhase>(i);
    m.phase_seconds[i] = prof_.estimated_total_seconds(p);
    m.phase_invocations[i] = static_cast<double>(prof_.invocations(p));
  }

  if (cfg_.sink != nullptr) {
    emit_interval(net, now, width);
    if (cfg_.full_dump) emit_full_dump(net, now, width);
  }
}

void Telemetry::scan(const Network& net, Cycle width) {
  IntervalMetrics& m = last_;
  // ---- link utilisation: phits carried since the previous sample ----
  delta_scratch_.assign(net.num_channels(), 0);
  u64 class_phits[5] = {};
  u32 class_links[5] = {};
  hot_.channel = kInvalidChannel;
  hot_.link_util = 0.0;
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    if (!net.channel_wired(c)) continue;  // trimmed global slots
    const Channel ch = net.channel(c);
    const u64 phits = net.channel_phits(c);
    const u64 d = phits - prev_phits_[c];
    prev_phits_[c] = phits;
    delta_scratch_[c] = d;
    const u32 k = static_cast<u32>(ch.cls);
    class_phits[k] += d;
    ++class_links[k];
    if (ch.is_ejection()) continue;
    const double util =
        width == 0 ? 0.0 : static_cast<double>(d) / static_cast<double>(width);
    if (hot_.channel == kInvalidChannel || util > hot_.link_util) {
      hot_.channel = c;
      hot_.link_util = util;
    }
  }
  const auto class_util = [width](u64 phits, u32 links) {
    if (width == 0 || links == 0) return 0.0;
    return static_cast<double>(phits) /
           (static_cast<double>(links) * static_cast<double>(width));
  };
  const u32 kL = static_cast<u32>(ChannelClass::kLocal);
  const u32 kG = static_cast<u32>(ChannelClass::kGlobal);
  const u32 kRl = static_cast<u32>(ChannelClass::kRingLocal);
  const u32 kRg = static_cast<u32>(ChannelClass::kRingGlobal);
  m.util_local = class_util(class_phits[kL], class_links[kL]);
  m.util_global = class_util(class_phits[kG], class_links[kG]);
  m.util_ring = class_util(class_phits[kRl] + class_phits[kRg],
                           class_links[kRl] + class_links[kRg]);
  m.util_max = hot_.link_util;

  // ---- per-VC buffer occupancy + throttle latches ----
  double occ_sum = 0.0;
  u64 occ_n = 0;
  u32 throttled = 0;
  hot_.vc_occ = 0.0;
  hot_.vc_router = 0;
  hot_.vc_port = 0;
  hot_.vc_vc = 0;
  const u32 at = static_cast<u32>(net.state_cycle());
  for (RouterId r = 0; r < net.topo().routers(); ++r) {
    if (!net.router_built(r)) continue;  // untouched: every buffer empty
    const Router& router = net.router(r);
    if (router.throttled) ++throttled;
    for (PortId p = 0; p < ports_; ++p) {
      const InputPort& in = router.inputs[p];
      for (u32 v = 0; v < in.vcs.size(); ++v) {
        const u32 cap = in.vcs[v].capacity();
        if (cap == 0) continue;
        const double occ = static_cast<double>(in.stored_phits(v, at)) /
                           static_cast<double>(cap);
        occ_sum += occ;
        ++occ_n;
        if (occ > hot_.vc_occ) {
          hot_.vc_occ = occ;
          hot_.vc_router = r;
          hot_.vc_port = p;
          hot_.vc_vc = static_cast<VcId>(v);
        }
      }
    }
  }
  m.vc_occupancy_mean = occ_n == 0 ? 0.0 : occ_sum / occ_n;
  m.vc_occupancy_max = hot_.vc_occ;
  m.throttled_routers = throttled;

  // ---- escape-ring pressure ----
  u64 in_ring = 0;
  net.packets().for_each_live([&](PacketId, const Packet& pkt) {
    if (pkt.in_ring) ++in_ring;
  });
  m.ring_occupancy = static_cast<double>(in_ring);
}

void Telemetry::emit_interval(const Network& net, Cycle now, Cycle width) {
  JsonWriter w;
  w.begin_object();
  w.key("type").value("interval");
  w.key("label").value(cfg_.label);
  w.key("cycle").value(now);
  w.key("interval_cycles").value(width);
  w.key("metrics").begin_object();
  interval_fields(last_, [&w](const char* name, double value) {
    w.key(name).value(value);
  });
  w.end_object();
  if (hot_.channel != kInvalidChannel) {
    const Channel ch = net.channel(hot_.channel);
    w.key("hot_link").begin_object();
    w.key("channel").value(hot_.channel);
    w.key("src_router").value(ch.src_router);
    w.key("src_port").value(static_cast<u32>(ch.src_port));
    w.key("class").value(to_string(ch.cls));
    w.key("util").value(hot_.link_util);
    w.end_object();
  }
  w.key("hot_vc").begin_object();
  w.key("router").value(hot_.vc_router);
  w.key("port").value(static_cast<u32>(hot_.vc_port));
  w.key("vc").value(static_cast<u32>(hot_.vc_vc));
  w.key("occupancy").value(hot_.vc_occ);
  w.end_object();
  w.end_object();
  cfg_.sink->write_line(w.str());
}

void Telemetry::emit_full_dump(const Network& net, Cycle now, Cycle width) {
  // Per-channel utilisation (idle channels omitted to bound the record).
  JsonWriter lw;
  lw.begin_object();
  lw.key("type").value("links");
  lw.key("label").value(cfg_.label);
  lw.key("cycle").value(now);
  lw.key("links").begin_array();
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    const u64 d = delta_scratch_[c];
    if (d == 0) continue;  // unwired slots never accumulate a delta
    const Channel ch = net.channel(c);
    const double util =
        width == 0 ? 0.0 : static_cast<double>(d) / static_cast<double>(width);
    lw.begin_object();
    lw.key("channel").value(c);
    lw.key("src_router").value(ch.src_router);
    lw.key("src_port").value(static_cast<u32>(ch.src_port));
    lw.key("class").value(to_string(ch.cls));
    lw.key("phits").value(d);
    lw.key("util").value(util);
    lw.end_object();
  }
  lw.end_array();
  lw.end_object();
  cfg_.sink->write_line(lw.str());

  // Per-VC occupancy and cumulative stall counters (idle VCs omitted).
  JsonWriter vw;
  vw.begin_object();
  vw.key("type").value("vcs");
  vw.key("label").value(cfg_.label);
  vw.key("cycle").value(now);
  vw.key("vcs").begin_array();
  const u32 at = static_cast<u32>(net.state_cycle());
  for (RouterId r = 0; r < net.topo().routers(); ++r) {
    if (!net.router_built(r)) continue;  // untouched: nothing stored, no stalls
    const Router& router = net.router(r);
    for (PortId p = 0; p < ports_; ++p) {
      const InputPort& in = router.inputs[p];
      for (u32 v = 0; v < in.vcs.size(); ++v) {
        const u32 stored = in.stored_phits(v, at);
        const u32 flat = vc_index(r, p, static_cast<VcId>(v));
        const u64 cstall = vc_credit_stall_[flat];
        const u64 astall = vc_alloc_stall_[flat];
        if (stored == 0 && cstall == 0 && astall == 0) continue;
        const u32 cap = in.vcs[v].capacity();
        const double occ =
            cap == 0 ? 0.0
                     : static_cast<double>(stored) / static_cast<double>(cap);
        vw.begin_object();
        vw.key("router").value(r);
        vw.key("port").value(static_cast<u32>(p));
        vw.key("vc").value(v);
        vw.key("stored_phits").value(stored);
        vw.key("occupancy").value(occ);
        vw.key("credit_stall_cycles").value(cstall);
        vw.key("alloc_stalls").value(astall);
        vw.end_object();
      }
    }
  }
  vw.end_array();
  vw.end_object();
  cfg_.sink->write_line(vw.str());
}

void Telemetry::on_watchdog_trip(const Network& net, u64 stalled,
                                 u64 worst_stall) {
  if (forensic_dumps_ >= verify::kMaxForensicDumps) return;
  ++forensic_dumps_;
  last_edges_ = verify::stalled_heads(net);
  const u64 total = last_edges_.size();
  if (total > verify::kMaxForensicEdges)
    last_edges_.resize(verify::kMaxForensicEdges);
  if (cfg_.sink != nullptr)
    emit_forensics(net.now(), stalled, worst_stall, total);
}

void Telemetry::emit_forensics(Cycle now, u64 stalled, u64 worst_stall,
                               u64 total_edges) {
  JsonWriter w;
  w.begin_object();
  w.key("type").value("forensics");
  w.key("label").value(cfg_.label);
  w.key("cycle").value(now);
  w.key("stalled_packets").value(stalled);
  w.key("worst_stall").value(worst_stall);
  w.key("edges").begin_array();
  for (const verify::StallEdge& e : last_edges_) {
    w.begin_object();
    w.key("router").value(e.router);
    w.key("port").value(static_cast<u32>(e.in_port));
    w.key("vc").value(static_cast<u32>(e.in_vc));
    w.key("packet").value(e.packet);
    w.key("src").value(e.src);
    w.key("dst").value(e.dst);
    w.key("dst_router").value(e.dst_router);
    w.key("age").value(e.age);
    w.key("in_ring").value(e.in_ring);
    w.key("arrived_phits").value(e.arrived_phits);
    w.key("wait_port").value(static_cast<u32>(e.wait_port));
    w.key("wait_busy").value(e.wait_busy);
    if (e.held_by != kInvalidPacket) w.key("held_by").value(e.held_by);
    w.key("wait_credits").value(e.wait_credits);
    w.end_object();
  }
  w.end_array();
  w.key("truncated").value(total_edges - last_edges_.size());
  w.end_object();
  cfg_.sink->write_line(w.str());
}

void Telemetry::write_summary(const Network& net) {
  if (summary_written_) return;
  summary_written_ = true;
  if (cfg_.sink == nullptr) return;

  const Stats& st = net.stats();

  // Top stalled input VCs, by combined credit + alloc stalls. Ties resolve
  // to the lower flat index, so the report is deterministic.
  struct TopVc {
    u64 total;
    u32 flat;
    RouterId router;
    PortId port;
    VcId vc;
  };
  std::vector<TopVc> top;
  for (RouterId r = 0; r < net.topo().routers(); ++r) {
    for (PortId p = 0; p < ports_; ++p) {
      const std::size_t slot = static_cast<std::size_t>(r) * ports_ + p;
      const u32 base = vc_base_[slot];
      const u32 end = vc_base_[slot + 1];
      for (u32 f = base; f < end; ++f) {
        const u64 t = vc_credit_stall_[f] + vc_alloc_stall_[f];
        if (t > 0)
          top.push_back({t, f, r, p, static_cast<VcId>(f - base)});
      }
    }
  }
  const std::size_t keep = std::min<std::size_t>(8, top.size());
  std::partial_sort(top.begin(), top.begin() + keep, top.end(),
                    [](const TopVc& a, const TopVc& b) {
                      return a.total != b.total ? a.total > b.total
                                                : a.flat < b.flat;
                    });
  top.resize(keep);

  const LatencyAccum& lat = st.latency();
  const LatencyHistogram& hist = st.latency_histogram();

  JsonWriter w;
  w.begin_object();
  w.key("type").value("summary");
  w.key("label").value(cfg_.label);
  w.key("cycle").value(net.now());
  w.key("samples").value(samples_);
  w.key("forensic_dumps").value(forensic_dumps_);

  w.key("stats").begin_object();
  w.key("generated_packets").value(st.generated_packets());
  w.key("injected_packets").value(st.injected_packets());
  w.key("delivered_packets").value(st.delivered_packets());
  w.key("delivered_phits").value(st.delivered_phits());
  w.key("latency_mean").value(lat.mean());
  w.key("latency_stddev").value(lat.stddev());
  w.key("latency_min").value(lat.count == 0 ? u64{0} : lat.min);
  w.key("latency_max").value(lat.max);
  w.key("latency_p50").value(hist.percentile(0.50));
  w.key("latency_p99").value(hist.percentile(0.99));
  w.key("latency_overflow").value(hist.overflow_count());
  w.key("mean_hops").value(st.mean_hops());
  w.key("max_hops").value(st.max_hops());
  w.key("local_misroutes").value(st.local_misroutes());
  w.key("global_misroutes").value(st.global_misroutes());
  w.key("ring_entries").value(st.ring_entries());
  w.key("ring_exits").value(st.ring_exits());
  w.key("ring_packets").value(st.ring_packets());
  w.key("ring_reentries").value(st.ring_reentries());
  w.key("ring_use_fraction").value(st.ring_use_fraction());
  w.key("stalled_packets").value(st.stalled_packets());
  w.key("worst_stall").value(st.worst_stall());
  w.end_object();

  w.key("stalls").begin_object();
  w.key("credit_cycles").value(credit_stall_cycles());
  w.key("alloc_cycles").value(alloc_stall_cycles());
  w.key("top").begin_array();
  for (const TopVc& t : top) {
    w.begin_object();
    w.key("router").value(t.router);
    w.key("port").value(static_cast<u32>(t.port));
    w.key("vc").value(static_cast<u32>(t.vc));
    w.key("credit_stall_cycles").value(vc_credit_stall_[t.flat]);
    w.key("alloc_stalls").value(vc_alloc_stall_[t.flat]);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("phases").begin_array();
  for (u32 i = 0; i < kNumSimPhases; ++i) {
    const SimPhase p = static_cast<SimPhase>(i);
    w.begin_object();
    w.key("name").value(to_string(p));
    w.key("invocations").value(prof_.invocations(p));
    w.key("sampled_invocations").value(prof_.sampled_invocations(p));
    w.key("sampled_seconds").value(prof_.seconds(p));
    w.key("estimated_seconds").value(prof_.estimated_total_seconds(p));
    w.end_object();
  }
  w.end_array();

  w.key("profiler").begin_object();
  w.key("cycles").value(prof_.cycles());
  w.key("sampled_cycles").value(prof_.sampled_cycles());
  w.key("sample_period").value(prof_.sample_period());
  w.end_object();

  w.end_object();
  cfg_.sink->write_line(w.str());
}

}  // namespace ofar
