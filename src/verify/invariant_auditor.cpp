#include "verify/invariant_auditor.hpp"

#include <cstdarg>
#include <cstdio>
#include <vector>

#include "sim/network.hpp"
#include "verify/wait_graph.hpp"

namespace ofar::verify {

namespace {

// Per-report cap: a corrupted state typically breaks the same invariant at
// many sites; the first few localise the bug, the rest just flood stderr.
constexpr std::size_t kMaxViolations = 32;

std::string format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

}  // namespace

const char* to_string(Invariant inv) noexcept {
  switch (inv) {
    case Invariant::kCreditConservation: return "credit-conservation";
    case Invariant::kPacketConservation: return "packet-conservation";
    case Invariant::kVctAtomicity: return "vct-atomicity";
    case Invariant::kWorklists: return "worklists";
    case Invariant::kRingBubble: return "ring-bubble";
    case Invariant::kWaitGraph: return "wait-graph";
  }
  return "?";
}

bool AuditReport::has(Invariant inv) const noexcept {
  for (const Violation& v : violations)
    if (v.invariant == inv) return true;
  return false;
}

std::string AuditReport::to_string() const {
  std::string out = format("invariant audit at cycle %llu: ",
                           static_cast<unsigned long long>(cycle));
  if (ok()) {
    out += format("all %u checks passed\n", checks_run);
    return out;
  }
  out += format("%llu violation(s) across %u checks\n",
                static_cast<unsigned long long>(violations.size() +
                                                suppressed),
                checks_run);
  for (const Violation& v : violations) {
    out += "  [";
    out += ofar::verify::to_string(v.invariant);
    out += "] ";
    out += v.detail;
    out += '\n';
  }
  if (suppressed > 0)
    out += format("  ... %llu further violation(s) suppressed\n",
                  static_cast<unsigned long long>(suppressed));
  return out;
}

void InvariantAuditor::add(AuditReport& rep, Invariant inv,
                           std::string detail) const {
  if (rep.violations.size() >= kMaxViolations) {
    ++rep.suppressed;
    return;
  }
  rep.violations.push_back({inv, std::move(detail)});
}

AuditReport InvariantAuditor::run_all() const {
  AuditReport rep;
  rep.cycle = net_.now();
  check_credit_conservation(rep);
  check_packet_conservation(rep);
  check_vct_atomicity(rep);
  check_worklists(rep);
  check_ring_bubble(rep);
  check_wait_graph(rep);
  return rep;
}

bool header_valid(const Network& net, const Packet& pkt) noexcept {
  const Dragonfly& topo = net.topo();
  const auto group_or_unset = [&topo](GroupId g) {
    return g < topo.groups() || g == kInvalidGroup;
  };
  return pkt.src < topo.nodes() && pkt.dst < topo.nodes() &&
         pkt.dst_router == topo.router_of_node(pkt.dst) &&
         group_or_unset(pkt.inter_group) && group_or_unset(pkt.flag_group) &&
         (pkt.inter_router < topo.routers() ||
          pkt.inter_router == kInvalidRouter);
}

i64 InvariantAuditor::arrival_cycle(const VcFifo::Entry& e) const {
  // A FIFO holds no packet that arrived after the state cycle (restore
  // checks it), and none that waited 2^32 cycles (DESIGN.md §14). A packet
  // placed whole before cycle packet_size arrived "before cycle 0".
  const Cycle state = net_.state_cycle();
  return static_cast<i64>(state) -
         static_cast<i64>(static_cast<u32>(static_cast<u32>(state) -
                                           e.arrive));
}

u32 InvariantAuditor::streaming_left(const VcFifo* f, u32 at) const {
  if (f == nullptr || f->empty()) return 0;
  const u32 left = f->send_end() - at;
  return left - 1 < net_.cfg_.packet_size ? left : 0;
}

u32 InvariantAuditor::sent_since(i64 first) const {
  const i64 state = static_cast<i64>(net_.state_cycle());
  if (first > state) return 0;
  return static_cast<u32>(
      std::min<i64>(net_.cfg_.packet_size, state - first + 1));
}

template <typename Visit>
void InvariantAuditor::for_each_phit_event(const Visit& visit) const {
  // Bucket (slot, owner) of slot now + d holds the events due at now + d,
  // in the order the owner applies them.
  const u32 wheel = net_.wheel_size_;
  const std::size_t k = net_.shards_.size();
  for (u32 d = 0; d < wheel; ++d) {
    const Cycle due = net_.now_ + d;
    const std::size_t first = (due % wheel) * k;
    for (const Network::ShardState& sh : net_.shards_)
      for (std::size_t b = first; b < first + k; ++b)
        for (const Network::PhitEvent& e : sh.phit_wheel[b]) visit(e, due);
  }
}

// ---------------------------------------------------------------------------
// credit conservation (VCT flow control, paper §V)
// ---------------------------------------------------------------------------
//
// An ejection output is a sink: its one counter stays at its cap. For
// every other (channel, VC) the downstream buffer capacity is
// partitioned at all times between: credits held upstream, credits on
// their way back, phits stored downstream, phits on the wire, and the
// unsent remainder of an active transfer (reserved whole-packet at grant).
// Credits return as ramps: credits[] already counts a ramp's credits that
// have yet to land, and a ramp on the wheel carries a packet's worth. A
// downstream head that streams sent its ramp at its first phit, so its
// unsent phits are counted by the ramp and by the FIFO: subtract them once.
// Whether a head streams is read from its send end, not from head_busy
// (which the VCT check holds against the transfers).
// A packet's phits left its sender one per cycle from its first, `latency`
// cycles before its head arrived (or its head event is due), so the phits
// on the wire follow from those cycles alone, whatever the sender streams
// now.
void InvariantAuditor::check_credit_conservation(AuditReport& rep) const {
  ++rep.checks_run;
  const u32 at = static_cast<u32>(net_.state_cycle());
  const u32 packet = net_.cfg_.packet_size;
  const std::size_t num_ch = net_.num_channels();
  std::vector<std::vector<u64>> wire_phits(num_ch);
  std::vector<std::vector<u32>> ramps(num_ch);
  for (ChannelId c = 0; c < num_ch; ++c) {
    if (!net_.channel_wired(c)) continue;  // trimmed global slots
    const Channel ch = net_.channel(c);
    // Unbuilt source router: no credits bound, so nothing can be in flight
    // on this channel and the per-VC tallies stay empty.
    const std::size_t vcs =
        net_.router_built(ch.src_router)
            ? net_.routers_[ch.src_router].outputs[ch.src_port].credits.size()
            : 0;
    wire_phits[c].assign(vcs, 0);
    ramps[c].assign(vcs, 0);
  }
  // Restore checks that every event's channel is wired, its VC below the
  // channel's and its sender built, so these indices are in range. A
  // packet whose head event is on the wheel has every phit its sender
  // sent on the wire.
  for_each_phit_event([&](const Network::PhitEvent& e, Cycle due) {
    const Channel ch = net_.channel(e.ch);
    if (!ch.is_ejection())
      wire_phits[e.ch][e.vc] +=
          sent_since(static_cast<i64>(due) - ch.latency);
  });
  for (const Network::ShardState& sh : net_.shards_)
    for (const auto& slot : sh.credit_wheel)
      for (const Network::CreditEvent& e : slot) ++ramps[e.ch][e.vc];

  for (ChannelId c = 0; c < num_ch; ++c) {
    if (!net_.channel_wired(c)) continue;
    const Channel ch = net_.channel(c);
    if (!net_.router_built(ch.src_router)) continue;  // no credit state yet
    const OutputPort& out = net_.routers_[ch.src_router].outputs[ch.src_port];
    if (ch.is_ejection()) {
      if (out.credits[0] != out.credit_cap[0])
        add(rep, Invariant::kCreditConservation,
            format("ejection channel %u (r%u.p%u): credits=%u, expected its "
                   "cap %u — a sink's credits never move",
                   c, ch.src_router, static_cast<u32>(ch.src_port),
                   out.credits[0], out.credit_cap[0]));
      continue;
    }
    // Built source, unbuilt destination: phits may be on the wire but none
    // can be stored downstream yet (delivery builds the destination).
    const InputPort* dst_in =
        net_.router_built(ch.dst_router)
            ? &net_.routers_[ch.dst_router].inputs[ch.dst_port]
            : nullptr;
    for (u32 v = 0; v < out.credits.size(); ++v) {
      // Each queued packet's phits are stored once arrived and on the wire
      // before; the streaming head's sent phits are neither.
      u64 stored = 0, wire = wire_phits[c][v];
      u32 streaming = 0;
      const VcFifo* f = dst_in != nullptr ? &dst_in->vcs[v] : nullptr;
      for (u32 i = 0; f != nullptr && i < f->num_packets(); ++i) {
        const VcFifo::Entry& e = f->entry(i);
        const u32 arrived = f->arrived(e, at);
        stored += arrived;
        wire += sent_since(arrival_cycle(e) - ch.latency) - u64{arrived};
      }
      const u32 left = streaming_left(f, at);
      if (left != 0) {
        stored -= packet - left;  // sent on
        if (left < packet) streaming = left;  // its ramp is on its way
      }
      const u32 unsent =
          out.busy() && out.active_vc == v ? out.phits_left : 0;
      const u64 ramping = u64{ramps[c][v]} * packet;
      const u64 total = u64{out.credits[v]} + ramping + stored + wire +
                        unsent - streaming;
      if (total != out.credit_cap[v]) {
        add(rep, Invariant::kCreditConservation,
            format("channel %u (r%u.p%u -> r%u.p%u) vc %u: credits=%u (%u "
                   "still landing) + ramps=%llu + stored=%llu + wire=%llu + "
                   "unsent=%u - streaming=%u = %llu, expected capacity %u",
                   c, ch.src_router, static_cast<u32>(ch.src_port),
                   ch.dst_router, static_cast<u32>(ch.dst_port), v,
                   out.credits[v], out.pending(v, at),
                   static_cast<unsigned long long>(ramping),
                   static_cast<unsigned long long>(stored),
                   static_cast<unsigned long long>(wire), unsent, streaming,
                   static_cast<unsigned long long>(total),
                   out.credit_cap[v]));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// packet conservation
// ---------------------------------------------------------------------------
//
// Lifetime totals (never reset by Stats measurement windows): every injected
// packet is live until delivered, so live == injected − delivered, and the
// pool's liveness bitmap must agree with its own counter. The free list
// holds exactly the dead slots, each once (create() pops it, so a live or
// repeated id would be handed out twice, an out-of-range one written past
// the pool); every live packet's header is well-formed (header_valid); and
// every packet a FIFO queues is live.
void InvariantAuditor::check_packet_conservation(AuditReport& rep) const {
  ++rep.checks_run;
  const PacketPool& pool = net_.pool_;
  const u64 injected = net_.injected_total_;
  const u64 delivered = net_.delivered_total_;
  const u64 live = pool.live_count();
  if (delivered > injected || live != injected - delivered) {
    add(rep, Invariant::kPacketConservation,
        format("pool holds %llu live packets, but injected %llu - "
               "delivered %llu = %llu should be in flight",
               static_cast<unsigned long long>(live),
               static_cast<unsigned long long>(injected),
               static_cast<unsigned long long>(delivered),
               static_cast<unsigned long long>(injected - delivered)));
  }
  u64 bitmap_live = 0;
  pool.for_each_live([&](PacketId id, const Packet& pkt) {
    ++bitmap_live;
    if (header_valid(net_, pkt)) return;
    add(rep, Invariant::kPacketConservation,
        format("live packet %u has a malformed header: src %u dst %u "
               "dst_router %u inter_group %u inter_router %u flag_group %u",
               id, pkt.src, pkt.dst, pkt.dst_router, pkt.inter_group,
               pkt.inter_router, pkt.flag_group));
  });
  if (bitmap_live != live) {
    add(rep, Invariant::kPacketConservation,
        format("PacketPool bitmap marks %llu packets live, counter says "
               "%llu",
               static_cast<unsigned long long>(bitmap_live),
               static_cast<unsigned long long>(live)));
  }
  const std::size_t slots = pool.slots_.size();
  std::vector<u8> freed(slots, 0);
  for (const PacketId id : pool.free_list_) {
    const bool dead = id < slots && !pool.live_bits_[id];
    if (dead && freed[id] == 0) {
      freed[id] = 1;
      continue;
    }
    add(rep, Invariant::kPacketConservation,
        format("free list holds %s packet id %u",
               id >= slots ? "out-of-range" : dead ? "repeated" : "live",
               id));
  }
  if (pool.free_list_.size() + bitmap_live != slots) {
    add(rep, Invariant::kPacketConservation,
        format("pool has %zu slots but %zu free and %llu live", slots,
               pool.free_list_.size(),
               static_cast<unsigned long long>(bitmap_live)));
  }
  for (const Router& r : net_.routers_) {
    for (PortId p = 0; p < r.inputs.size(); ++p) {
      const InputPort& in = r.inputs[p];
      for (u32 v = 0; v < in.vcs.size(); ++v)
        for (u32 i = 0; i < in.vcs[v].num_packets(); ++i)
          if (!pool.is_live(in.vcs[v].entry(i).packet))
            add(rep, Invariant::kPacketConservation,
                format("r%u.p%uv%u queues packet %u, which is not live",
                       r.id, static_cast<u32>(p), v,
                       in.vcs[v].entry(i).packet));
    }
  }
}

// ---------------------------------------------------------------------------
// VCT atomicity
// ---------------------------------------------------------------------------
//
// A grant at cycle t sets last_progress = t and phits_left = size, and the
// head's FIFO stamps t + size as the cycle its last phit leaves; the
// advance pass then sends exactly one phit per cycle at t+1, t+2, ....
// At the state cycle s an active transfer therefore satisfies
// size − phits_left == s − last_progress — the head occupies its output
// for exactly packet_size cycles, no more, no less — and all
// transfer-tracking state must agree on which head that is:
// active_out_mask names exactly the busy outputs, each wired and streaming
// a live packet on an existing downstream VC from the head of an existing
// input VC, whose sent count matches; head_busy flags exactly those heads,
// and so do their FIFOs' send ends (primary state, unlike head_busy).
//
// Links carry whole packets: a packet granted at t sends its first phit at
// t+1, so its head event is due at t + 1 + latency (an ejection's one
// event, at its last phit, at t + size + latency), and a FIFO entry that
// no grant has moved since stamps exactly that arrival (an injected one
// its placement − size + 1: it arrives whole). Only the newest entry of a
// FIFO can still be arriving, and no head streams before it arrived.
void InvariantAuditor::check_vct_atomicity(AuditReport& rep) const {
  ++rep.checks_run;
  const Cycle state = net_.state_cycle();
  const u32 at = static_cast<u32>(state);
  const u32 packet = net_.cfg_.packet_size;
  const PortId node_ports = static_cast<PortId>(net_.topo_.p());
  std::vector<u32> first_vc;  // per input port: flat index of its VC 0
  std::vector<u8> streams;    // per flat input VC: outputs streaming it
  for (const Router& r : net_.routers_) {
    const u32 ports = static_cast<u32>(r.outputs.size());  // 0 if unbuilt
    first_vc.assign(ports + 1, 0);
    for (PortId p = 0; p < ports; ++p)
      first_vc[p + 1] = first_vc[p] + r.inputs[p].vcs.size();
    streams.assign(first_vc[ports], 0);
    if (ports < 64 && (r.active_out_mask >> ports) != 0) {
      add(rep, Invariant::kVctAtomicity,
          format("r%u: active_out_mask %llx names ports past its %u", r.id,
                 static_cast<unsigned long long>(r.active_out_mask), ports));
    }
    for (PortId port = 0; port < ports; ++port) {
      const OutputPort& out = r.outputs[port];
      const bool mask_bit = (r.active_out_mask >> port) & 1u;
      // An idle output keeps its last transfer's source: it must exist too.
      if (out.src_port >= ports ||
          out.src_vc >= r.inputs[out.src_port].vcs.size() ||
          out.busy() != mask_bit ||
          (mask_bit && (!out.wired() || !net_.pool_.is_live(out.active)))) {
        add(rep, Invariant::kVctAtomicity,
            format("r%u.p%u: active_out_mask bit %u, but the %s output "
                   "streams packet %u from p%uv%u",
                   r.id, static_cast<u32>(port), mask_bit ? 1u : 0u,
                   out.wired() ? "wired" : "unwired", out.active,
                   static_cast<u32>(out.src_port),
                   static_cast<u32>(out.src_vc)));
        continue;
      }
      if (!out.busy()) continue;
      const Packet& pkt = net_.pool_.get(out.active);
      const VcFifo& src = r.inputs[out.src_port].vcs[out.src_vc];
      if (src.empty() || src.head() != out.active) {
        add(rep, Invariant::kVctAtomicity,
            format("r%u.p%u: transfer source r%u.p%uv%u does not hold "
                   "packet %u at its head",
                   r.id, static_cast<u32>(port), r.id,
                   static_cast<u32>(out.src_port),
                   static_cast<u32>(out.src_vc), out.active));
        continue;
      }
      ++streams[first_vc[out.src_port] + out.src_vc];
      const u64 sent = src.head_sent(at);
      if (out.active_vc >= out.credits.size() || out.phits_left == 0 ||
          sent + out.phits_left != packet ||
          sent != state - pkt.last_progress) {
        add(rep, Invariant::kVctAtomicity,
            format("r%u.p%u: packet %u, granted at cycle %llu, streams on "
                   "VC %u of %u with %llu sent and %u left — transfers must "
                   "stream one phit per cycle for exactly packet_size cycles",
                   r.id, static_cast<u32>(port), out.active,
                   static_cast<unsigned long long>(pkt.last_progress),
                   static_cast<u32>(out.active_vc), out.credits.size(),
                   static_cast<unsigned long long>(sent), out.phits_left));
      }
    }
    for (PortId p = 0; p < ports; ++p) {
      const InputPort& in = r.inputs[p];
      // The arrival every entry that no grant moved must stamp, given its
      // packet's last grant (or, at an injection port, its placement).
      const bool injection = p < node_ports;
      const Cycle latency = in.in_channel != kInvalidChannel
                                ? net_.channel(in.in_channel).latency
                                : 0;
      for (VcId v = 0; v < in.vcs.size(); ++v) {
        const u32 n = streams[first_vc[p] + v];
        const VcFifo& f = in.vcs[v];
        const u32 sending = streaming_left(&f, at) != 0 ? 1 : 0;
        if (n != in.head_busy[v] || n != sending) {
          add(rep, Invariant::kVctAtomicity,
              format("r%u.p%uv%u: head_busy %u and a send end that says "
                     "it %s, but %u outputs stream its head — a head must "
                     "be granted exactly once",
                     r.id, static_cast<u32>(p), static_cast<u32>(v),
                     static_cast<u32>(in.head_busy[v]),
                     sending != 0 ? "streams" : "waits", n));
        }
        if (!f.empty() && f.packet_phits() != packet) {
          add(rep, Invariant::kVctAtomicity,
              format("r%u.p%uv%u queues %u-phit packets, not %u", r.id,
                     static_cast<u32>(p), static_cast<u32>(v),
                     f.packet_phits(), packet));
          continue;
        }
        for (u32 i = 0; i < f.num_packets(); ++i) {
          const VcFifo::Entry& e = f.entry(i);
          if (!net_.pool_.is_live(e.packet)) continue;  // packet check's
          const Cycle grant = net_.pool_.get(e.packet).last_progress;
          const bool streaming = i == 0 && sending != 0;
          const u32 expect = static_cast<u32>(
              injection ? grant - packet + 1 : grant + 1 + latency);
          bool ok = static_cast<i32>(e.arrive - at) <= 0 &&
                    (i + 1 == f.num_packets() || f.arrived(e, at) == packet);
          if (streaming)
            ok = ok &&
                 static_cast<i32>(static_cast<u32>(grant) - e.arrive) >= 0;
          else if (injection || latency != 0)
            ok = ok && e.arrive == expect;
          if (ok) continue;
          add(rep, Invariant::kVctAtomicity,
              format("r%u.p%uv%u: entry %u (packet %u, last granted at "
                     "%llu) stamps its arrival at %u with %u phits here at "
                     "cycle %llu — %s",
                     r.id, static_cast<u32>(p), static_cast<u32>(v), i,
                     e.packet, static_cast<unsigned long long>(grant),
                     e.arrive, f.arrived(e, at),
                     static_cast<unsigned long long>(state),
                     streaming ? "a head streams only once it arrived"
                               : "a packet lands latency cycles after its "
                                 "first phit left, and only the newest "
                                 "entry may still be arriving"));
        }
      }
    }
  }

  // Restore checks that every event's channel is wired, its VC below the
  // channel's, its packet live and its sender built.
  std::vector<u8> on_wire(net_.pool_.slots_.size(), 0);
  for_each_phit_event([&](const Network::PhitEvent& e, Cycle due) {
    const Channel ch = net_.channel(e.ch);
    const Packet& pkt = net_.pool_.get(e.pkt);
    const Cycle grant = pkt.last_progress;
    // The first phit (an ejection: the last) left before the state cycle
    // ended, latency cycles before the event is due.
    const Cycle sent = ch.is_ejection() ? grant + packet : grant + 1;
    const bool once = on_wire[e.pkt] == 0;
    on_wire[e.pkt] = 1;
    if (once && due == sent + ch.latency && sent <= state) return;
    add(rep, Invariant::kVctAtomicity,
        format("channel %u carries packet %u due at cycle %llu, but its "
               "grant at %llu puts its %s phit on the wire at %llu%s — a "
               "packet crosses a link once, landing latency cycles after "
               "its first phit left",
               e.ch, e.pkt, static_cast<unsigned long long>(due),
               static_cast<unsigned long long>(grant),
               ch.is_ejection() ? "last" : "first",
               static_cast<unsigned long long>(sent),
               once ? "" : ", and another event carries it too"));
  });
}

// ---------------------------------------------------------------------------
// activity worklists (PR 1 kernel; see DESIGN.md "Cycle kernel")
// ---------------------------------------------------------------------------
void InvariantAuditor::check_worklists(AuditReport& rep) const {
  ++rep.checks_run;
  // Router list: flags and list membership must agree, and every router
  // with activity must be listed (soundness: the list may additionally
  // hold routers that went idle since the last refresh). Worklists are
  // per shard (DESIGN.md §10); each entry must also belong to the shard
  // that lists it, or two shards could advance the same router in
  // parallel.
  std::vector<u8> listed(net_.routers_.size(), 0);
  for (u32 s = 0; s < net_.shards_.size(); ++s) {
    const Network::ShardState& sh = net_.shards_[s];
    for (const RouterId r : sh.active_routers) {
      if (r >= net_.routers_.size() || listed[r]) {
        add(rep, Invariant::kWorklists,
            format("shard %u worklist holds %s router id %u", s,
                   r >= net_.routers_.size() ? "out-of-range" : "duplicate",
                   r));
        continue;
      }
      if (r < sh.router_begin || r >= sh.router_end) {
        add(rep, Invariant::kWorklists,
            format("shard %u [%u,%u) lists router %u owned by another "
                   "shard — parallel phases would race on it",
                   s, sh.router_begin, sh.router_end, r));
      }
      listed[r] = 1;
    }
  }
  for (RouterId r = 0; r < net_.routers_.size(); ++r) {
    const Router& router = net_.routers_[r];
    if (listed[r] != net_.router_in_worklist_[r]) {
      add(rep, Invariant::kWorklists,
          format("r%u: in_worklist flag %u but %slisted", r,
                 static_cast<u32>(net_.router_in_worklist_[r]),
                 listed[r] ? "" : "not "));
    }
    if (router.has_activity() && !listed[r]) {
      add(rep, Invariant::kWorklists,
          format("r%u has %u buffered packets / out-mask %llx but is "
                 "missing from the active-router worklist — its packets "
                 "would never advance",
                 r, router.buffered_packets,
                 static_cast<unsigned long long>(router.active_out_mask)));
    }
    // The counters and masks the kernel's skips trust summarise the FIFOs
    // exactly: routable_heads counts the (port, vc) heads the allocation
    // scan could request for, buffered_packets the queued entries and
    // input_mask the non-empty VCs. A parked head (DESIGN.md §6) is a
    // routable head, counted in parked_heads, whose wake mask wake_any
    // covers; rises are consumed by the scan of the cycle they happen in.
    u32 heads = 0, packets = 0, parked = 0;
    u64 wake_any = 0;
    for (PortId p = 0; p < router.inputs.size(); ++p) {
      const InputPort& in = router.inputs[p];
      u32 non_empty = 0;
      for (VcId v = 0; v < in.vcs.size(); ++v) {
        const VcFifo& f = in.vcs[v];
        heads += in.has_head(v) ? 1 : 0;
        non_empty |= f.empty() ? 0u : 1u << v;
        if ((router.parked[p] >> v & 1) != 0) {
          ++parked;
          wake_any |= router.wake[p * net_.park_stride_ + v];
          if (!in.has_head(v))
            add(rep, Invariant::kWorklists,
                format("r%u.p%uv%u is parked without a routable head", r,
                       static_cast<u32>(p), static_cast<u32>(v)));
        }
        packets += f.num_packets();
      }
      if (router.input_mask[p] != non_empty) {
        add(rep, Invariant::kWorklists,
            format("r%u.p%u: input_mask %x but non-empty VCs %x", r,
                   static_cast<u32>(p),
                   static_cast<u32>(router.input_mask[p]), non_empty));
      }
      if ((router.parked[p] >> in.vcs.size()) != 0) {
        add(rep, Invariant::kWorklists,
            format("r%u.p%u: parked VCs %x beyond its %u VCs", r,
                   static_cast<u32>(p), static_cast<u32>(router.parked[p]),
                   in.vcs.size()));
      }
    }
    if (parked != router.parked_heads || wake_any != router.wake_any ||
        router.risen != 0) {
      add(rep, Invariant::kWorklists,
          format("r%u: %u parked heads waiting on %llx, but the router "
                 "counts %u waiting on %llx with rises %llx pending — a "
                 "head could stay parked past its rise",
                 r, parked, static_cast<unsigned long long>(wake_any),
                 router.parked_heads,
                 static_cast<unsigned long long>(router.wake_any),
                 static_cast<unsigned long long>(router.risen)));
    }
    if (heads != router.routable_heads ||
        packets != router.buffered_packets) {
      add(rep, Invariant::kWorklists,
          format("r%u: FIFOs hold %u routable heads and %u packets but the "
                 "counters say %u and %u — the kernel's skips would starve "
                 "or over-scan",
                 r, heads, packets, router.routable_heads,
                 router.buffered_packets));
    }
  }
  // Node list: it holds exactly the nodes with a non-empty source queue.
  std::vector<u8> node_listed(net_.pending_.size(), 0);
  for (const NodeId n : net_.active_nodes_) {
    if (n >= net_.pending_.size() || node_listed[n]) {
      add(rep, Invariant::kWorklists,
          format("node worklist holds %s id %u",
                 n >= net_.pending_.size() ? "out-of-range" : "duplicate",
                 n));
      continue;
    }
    node_listed[n] = 1;
  }
  for (NodeId n = 0; n < net_.pending_.size(); ++n) {
    if (node_listed[n] != (net_.pending_[n].empty() ? 0 : 1)) {
      add(rep, Invariant::kWorklists,
          format("node %u: %zu queued offers, %slisted", n,
                 net_.pending_[n].size(), node_listed[n] ? "" : "not "));
    }
  }
  // The injection drain skips listed nodes that are not ready; that is
  // exact only if each of them would fail the fits-probe now.
  const u32 packet = net_.cfg_.packet_size;
  const u32 at = static_cast<u32>(net_.state_cycle());
  for (NodeId n = 0; n < net_.pending_.size(); ++n) {
    if (!node_listed[n] || net_.node_ready_[n] != 0) continue;
    const RouterId r = net_.topo_.router_of_node(n);
    u32 vc = 0;
    const bool fits =
        !net_.router_built(r) ||
        (!net_.routers_[r].throttled &&
         net_.routers_[r]
             .inputs[net_.topo_.node_port(net_.topo_.node_slot(n))]
             .best_fit_vc(packet, vc, at));
    if (fits) {
      add(rep, Invariant::kWorklists,
          format("node %u has room for a packet but is not marked ready — "
                 "the injection drain would skip it",
                 n));
    }
  }
}

// ---------------------------------------------------------------------------
// escape-ring bubble condition (paper §IV-C)
// ---------------------------------------------------------------------------
//
// Bubble flow control admits a packet into the ring only when the target
// buffer has TWO packets of free space, and ring-to-ring moves conserve
// ring occupancy phit-for-phit. By induction the ring's physical occupancy
// — phits stored in ring-input FIFOs, phits on ring wires, plus the unsent
// remainder of transfers entering the ring from outside — never exceeds
// total ring capacity minus one packet. That guaranteed bubble is what
// lets the ring always drain (and the wait-graph check below lean on it).
// A ring FIFO's queued packets hold what their senders sent of them, bar
// what the streaming head sent on.
void InvariantAuditor::check_ring_bubble(AuditReport& rep) const {
  ++rep.checks_run;
  if (net_.ring_ == nullptr) return;
  const u32 packet_size = net_.cfg_.packet_size;
  const u32 at = static_cast<u32>(net_.state_cycle());
  u64 occupied = 0, capacity = 0;
  for (RouterId r = 0; r < net_.routers_.size(); ++r) {
    const Network::RingOut ring = net_.ring_in(r);
    if (!net_.router_built(r)) {
      // Untouched router: its ring VCs are empty but their capacity still
      // backs the bubble invariant, so count it from the arithmetic shape.
      u32 vcs = 0, cap = 0;
      net_.input_shape(r, ring.port, vcs, cap);
      capacity += u64{ring.num_vcs} * cap;
      continue;
    }
    const InputPort& in = net_.routers_[r].inputs[ring.port];
    const i64 latency = net_.channel(in.in_channel).latency;
    for (u32 v = ring.first_vc; v < ring.first_vc + ring.num_vcs; ++v) {
      const VcFifo& f = in.vcs[v];
      for (u32 i = 0; i < f.num_packets(); ++i)
        occupied += sent_since(arrival_cycle(f.entry(i)) - latency);
      const u32 left = streaming_left(&f, at);
      if (left != 0) occupied -= packet_size - left;
      capacity += f.capacity();
    }
  }
  for_each_phit_event([&](const Network::PhitEvent& e, Cycle due) {
    const Channel ch = net_.channel(e.ch);
    if (!ch.is_ejection() &&
        net_.is_ring_input(ch.dst_router, ch.dst_port, e.vc))
      occupied += sent_since(static_cast<i64>(due) - ch.latency);
  });
  for (const Router& r : net_.routers_) {
    for (const OutputPort& out : r.outputs) {
      if (!out.busy() || !out.wired()) continue;  // see check_vct_atomicity
      const Channel ch = net_.channel(out.channel);
      if (ch.is_ejection()) continue;
      if (net_.is_ring_input(ch.dst_router, ch.dst_port, out.active_vc) &&
          !net_.is_ring_input(r.id, out.src_port, out.src_vc))
        occupied += out.phits_left;  // entry in progress: space is spoken for
    }
  }
  if (capacity < packet_size || occupied > capacity - packet_size) {
    add(rep, Invariant::kRingBubble,
        format("escape ring holds %llu of %llu phits (incl. in-flight and "
               "committed entries); bubble flow control requires >= %u "
               "free or the ring can wedge",
               static_cast<unsigned long long>(occupied),
               static_cast<unsigned long long>(capacity), packet_size));
  }
}

// ---------------------------------------------------------------------------
// wait-for-graph acyclicity on the escape ring (paper §III / §IV-C)
// ---------------------------------------------------------------------------
void InvariantAuditor::check_wait_graph(AuditReport& rep) const {
  ++rep.checks_run;
  WaitGraph graph(net_);
  graph.build();
  const std::vector<WaitGraph::Node> cycle = graph.find_ring_cycle();
  if (!cycle.empty()) {
    add(rep, Invariant::kWaitGraph,
        format("wait cycle of %zu stalled heads lies entirely inside "
               "escape-ring VCs: %s — the paper's deadlock-freedom "
               "argument requires every cycle to touch a non-escape VC",
               cycle.size(), WaitGraph::describe(cycle).c_str()));
  }
}

}  // namespace ofar::verify
