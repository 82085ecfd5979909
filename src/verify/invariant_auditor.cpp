#include "verify/invariant_auditor.hpp"

#include <cstdarg>
#include <cstdio>

#include "sim/flat_state.hpp"
#include "sim/network.hpp"
#include "stats/sink.hpp"
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

std::string AuditReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("cycle").value(static_cast<u64>(cycle));
  w.key("checks_run").value(checks_run);
  w.key("ok").value(ok());
  w.key("suppressed").value(suppressed);
  w.key("violations").begin_array();
  for (const Violation& v : violations) {
    w.begin_object();
    w.key("invariant").value(ofar::verify::to_string(v.invariant));
    w.key("detail").value(v.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
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

// ---------------------------------------------------------------------------
// credit conservation (VCT flow control, paper §V)
// ---------------------------------------------------------------------------
//
// For every non-ejection (channel, VC) the downstream buffer capacity is
// partitioned at all times between: credits held upstream, phits on the
// wire, credits on the wire, phits stored downstream, and the unsent
// remainder of an active transfer (reserved whole-packet at grant).
void InvariantAuditor::check_credit_conservation(AuditReport& rep) const {
  ++rep.checks_run;
  const std::size_t num_ch = net_.num_channels();
  std::vector<std::vector<u32>> wire_phits(num_ch);
  std::vector<std::vector<u32>> wire_credits(num_ch);
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
    wire_credits[c].assign(vcs, 0);
  }
  for (const Network::ShardState& sh : net_.shards_) {
    for (const auto& slot : sh.phit_wheel)
      for (const Network::PhitEvent& e : slot) ++wire_phits[e.ch][e.vc];
    for (const auto& slot : sh.credit_wheel)
      for (const Network::CreditEvent& e : slot) ++wire_credits[e.ch][e.vc];
  }

  for (ChannelId c = 0; c < num_ch; ++c) {
    if (!net_.channel_wired(c)) continue;
    const Channel ch = net_.channel(c);
    if (ch.is_ejection()) continue;  // sink credits are modelled as infinite
    if (!net_.router_built(ch.src_router)) continue;  // no credit state yet
    const OutputPort& out = net_.routers_[ch.src_router].outputs[ch.src_port];
    // Built source, unbuilt destination: phits may be on the wire but none
    // can be stored downstream yet (delivery builds the destination).
    const bool dst_built = net_.router_built(ch.dst_router);
    for (std::size_t v = 0; v < out.credits.size(); ++v) {
      const u32 stored =
          dst_built ? HeadView(net_.routers_[ch.dst_router].inputs[ch.dst_port])
                          .stored_phits(static_cast<VcId>(v))
                    : 0;
      const u32 unsent =
          out.busy() && out.active_vc == v ? out.phits_left : 0;
      const u64 total = u64{out.credits[v]} + wire_phits[c][v] +
                        wire_credits[c][v] + stored + unsent;
      if (total != out.credit_cap[v]) {
        add(rep, Invariant::kCreditConservation,
            format("channel %u (r%u.p%u -> r%u.p%u) vc %zu: credits=%u + "
                   "wire_phits=%u + wire_credits=%u + stored=%u + unsent=%u "
                   "= %llu, expected capacity %u",
                   c, ch.src_router, static_cast<u32>(ch.src_port),
                   ch.dst_router, static_cast<u32>(ch.dst_port), v,
                   out.credits[v], wire_phits[c][v], wire_credits[c][v],
                   stored, unsent, static_cast<unsigned long long>(total),
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
// pool's liveness bitmap must agree with its own counter.
void InvariantAuditor::check_packet_conservation(AuditReport& rep) const {
  ++rep.checks_run;
  const u64 injected = net_.injected_total_;
  const u64 delivered = net_.delivered_total_;
  const u64 live = net_.pool_.live_count();
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
  net_.pool_.for_each_live([&](PacketId, const Packet&) { ++bitmap_live; });
  if (bitmap_live != live) {
    add(rep, Invariant::kPacketConservation,
        format("PacketPool bitmap marks %llu packets live, counter says "
               "%llu",
               static_cast<unsigned long long>(bitmap_live),
               static_cast<unsigned long long>(live)));
  }
}

// ---------------------------------------------------------------------------
// VCT atomicity
// ---------------------------------------------------------------------------
//
// A grant at cycle t sets last_progress = t and phits_left = size; the
// advance pass then sends exactly one phit per cycle at t+1, t+2, ....
// Between cycles (now = N means cycles 0..N−1 executed) an active transfer
// therefore satisfies  size − phits_left == (N−1) − last_progress  — the
// head occupies its output for exactly packet_size cycles, no more, no
// less, and all transfer-tracking state must agree on which head that is.
void InvariantAuditor::check_vct_atomicity(AuditReport& rep) const {
  ++rep.checks_run;
  const Cycle now = net_.now_;
  for (const Router& r : net_.routers_) {
    u32 busy_ports = 0;
    for (PortId port = 0; port < r.outputs.size(); ++port) {
      const OutputPort& out = r.outputs[port];
      const bool mask_bit = (r.active_out_mask >> port) & 1u;
      if (out.busy() != mask_bit) {
        add(rep, Invariant::kVctAtomicity,
            format("r%u.p%u: active_out_mask bit %u but output %s busy",
                   r.id, static_cast<u32>(port), mask_bit ? 1u : 0u,
                   out.busy() ? "is" : "is not"));
      }
      if (!out.busy()) continue;
      ++busy_ports;
      if (!net_.pool_.is_live(out.active)) {
        add(rep, Invariant::kVctAtomicity,
            format("r%u.p%u: active transfer references dead packet %u",
                   r.id, static_cast<u32>(port), out.active));
        continue;
      }
      const Packet& pkt = net_.pool_.get(out.active);
      const HeadView in(r.inputs[out.src_port]);
      if (out.src_vc >= in.num_vcs() || in.empty(out.src_vc) ||
          in.head(out.src_vc) != out.active) {
        add(rep, Invariant::kVctAtomicity,
            format("r%u.p%u: transfer source r%u.p%uv%u does not hold "
                   "packet %u at its head",
                   r.id, static_cast<u32>(port), r.id,
                   static_cast<u32>(out.src_port),
                   static_cast<u32>(out.src_vc), out.active));
        continue;
      }
      if (!in.head_in_flight(out.src_vc)) {
        add(rep, Invariant::kVctAtomicity,
            format("r%u.p%uv%u: head packet %u is streaming to p%u but "
                   "head_busy is clear — the head could be granted twice",
                   r.id, static_cast<u32>(out.src_port),
                   static_cast<u32>(out.src_vc), out.active,
                   static_cast<u32>(port)));
      }
      if (out.phits_left == 0 || out.phits_left > pkt.size) {
        add(rep, Invariant::kVctAtomicity,
            format("r%u.p%u: packet %u has %u phits left of a %u-phit "
                   "packet",
                   r.id, static_cast<u32>(port), out.active, out.phits_left,
                   static_cast<u32>(pkt.size)));
        continue;
      }
      const u64 sent = pkt.size - out.phits_left;
      const u64 held = now - 1 - pkt.last_progress;
      if (sent != held) {
        add(rep, Invariant::kVctAtomicity,
            format("r%u.p%u: packet %u granted at cycle %llu has held the "
                   "output %llu cycles but sent %llu phits — transfers "
                   "must stream one phit per cycle for exactly "
                   "packet_size cycles",
                   r.id, static_cast<u32>(port), out.active,
                   static_cast<unsigned long long>(pkt.last_progress),
                   static_cast<unsigned long long>(held),
                   static_cast<unsigned long long>(sent)));
      }
    }
    if (busy_ports != r.active_transfers) {
      add(rep, Invariant::kVctAtomicity,
          format("r%u: %u outputs are streaming but active_transfers=%u",
                 r.id, busy_ports, r.active_transfers));
    }
  }
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
    if (listed[r] != net_.router_in_worklist_[r]) {
      add(rep, Invariant::kWorklists,
          format("r%u: in_worklist flag %u but %slisted", r,
                 static_cast<u32>(net_.router_in_worklist_[r]),
                 listed[r] ? "" : "not "));
    }
    if (net_.routers_[r].has_activity() && !listed[r]) {
      add(rep, Invariant::kWorklists,
          format("r%u has %u buffered packets / out-mask %llx but is "
                 "missing from the active-router worklist — its packets "
                 "would never advance",
                 r, net_.routers_[r].buffered_packets,
                 static_cast<unsigned long long>(
                     net_.routers_[r].active_out_mask)));
    }
    // routable_heads must count exactly the (port, vc) heads the
    // allocation scan could request for.
    u32 heads = 0;
    for (const InputPort& port : net_.routers_[r].inputs) {
      const HeadView in(port);
      for (VcId v = 0; v < in.num_vcs(); ++v)
        if (in.routable(v)) ++heads;
    }
    if (heads != net_.routers_[r].routable_heads) {
      add(rep, Invariant::kWorklists,
          format("r%u: %u routable heads present but counter says %u — "
                 "the allocation skip would starve or over-scan", r, heads,
                 net_.routers_[r].routable_heads));
    }
  }
  // Node list: after do_injection's compaction it holds exactly the nodes
  // with a non-empty source queue.
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
    if (node_listed[n] != net_.node_in_worklist_[n] ||
        node_listed[n] != (net_.pending_[n].empty() ? 0 : 1)) {
      add(rep, Invariant::kWorklists,
          format("node %u: %zu queued offers, in_worklist flag %u, "
                 "%slisted",
                 n, net_.pending_[n].size(),
                 static_cast<u32>(net_.node_in_worklist_[n]),
                 node_listed[n] ? "" : "not "));
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
void InvariantAuditor::check_ring_bubble(AuditReport& rep) const {
  ++rep.checks_run;
  if (net_.ring_ == nullptr) return;
  const u32 packet_size = net_.cfg_.packet_size;
  u64 occupied = 0, capacity = 0;
  for (RouterId r = 0; r < net_.routers_.size(); ++r) {
    const PortId port = net_.ring_in_port_[r];
    if (port == kInvalidPort) continue;
    const u32 first = net_.ring_in_first_vc_[r];
    if (!net_.router_built(r)) {
      // Untouched router: its ring VCs are empty but their capacity still
      // backs the bubble invariant, so count it from the arithmetic shape.
      u32 vcs = 0, cap = 0;
      net_.input_shape(r, port, vcs, cap);
      capacity += u64{net_.ring_in_num_vcs_[r]} * cap;
      continue;
    }
    const HeadView in(net_.routers_[r].inputs[port]);
    for (u32 v = first; v < first + net_.ring_in_num_vcs_[r]; ++v) {
      occupied += in.stored_phits(static_cast<VcId>(v));
      capacity += in.capacity(static_cast<VcId>(v));
    }
  }
  for (const Network::ShardState& sh : net_.shards_) {
    for (const auto& slot : sh.phit_wheel) {
      for (const Network::PhitEvent& e : slot) {
        const Channel ch = net_.channel(e.ch);
        if (!ch.is_ejection() &&
            net_.is_ring_input(ch.dst_router, ch.dst_port, e.vc))
          ++occupied;
      }
    }
  }
  for (const Router& r : net_.routers_) {
    for (const OutputPort& out : r.outputs) {
      if (!out.busy()) continue;
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
