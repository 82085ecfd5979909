#include "sim/network.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/thread_annotations.hpp"
#include "trace/trace.hpp"
#include "trace/tracer.hpp"

namespace ofar {

const char* to_string(TraceEvent::Kind k) noexcept {
  switch (k) {
    case TraceEvent::Kind::kInject: return "inject";
    case TraceEvent::Kind::kGrant: return "grant";
    case TraceEvent::Kind::kRingEnter: return "ring_enter";
    case TraceEvent::Kind::kRingExit: return "ring_exit";
    case TraceEvent::Kind::kDeliver: return "deliver";
  }
  return "unknown";
}

namespace {
constexpr u32 kEjectionLatency = 1;
constexpr u32 kEjectionCredits = 1u << 30;  // sink: effectively infinite
constexpr Cycle kWatchdogPeriod = 4096;
// Warm start for the event-wheel slots, divided among the shards' wheels:
// enough for moderate loads, so the steady-state hot loop never grows a slot
// vector (clear() keeps capacity, so any later growth also happens at most
// once per slot).
constexpr std::size_t kWheelSlotReserve = 64;
}  // namespace

Network::Network(const SimConfig& cfg)
    : cfg_(cfg),
      topo_(cfg.h, cfg.groups, cfg.ring == RingKind::kPhysical),
      rng_(cfg.seed) {
  const std::string err = cfg_.validate();
  OFAR_CHECK_MSG(err.empty(), err.c_str());

  if (cfg_.ring != RingKind::kNone) build_ring();

  const u32 ports = topo_.ports_per_router();
  const u32 num_routers = topo_.routers();
  ports_per_router_ = ports;
  OFAR_CHECK_MSG(ports <= 64, "active-output bitmask is 64 bits wide");

  // ---- id-width validation against the topology trait ----
  // All entity counts are computed in u64 and checked against the compact
  // 32-bit id types BEFORE any truncating arithmetic runs, so an oversized
  // request fails loudly instead of wrapping. The invalid sentinels must
  // stay representable, hence the strict compares.
  {
    const u32 max_vcs =
        std::max({cfg_.vcs_injection, cfg_.vcs_local, cfg_.vcs_global}) +
        (cfg_.ring == RingKind::kEmbedded ? 1u : 0u);
    const Dragonfly::Limits lim = topo_.limits(max_vcs);
    OFAR_CHECK_MSG(lim.routers < kInvalidRouter,
                   "router count must fit RouterId");
    OFAR_CHECK_MSG(lim.nodes < std::numeric_limits<NodeId>::max(),
                   "node count must fit NodeId");
    OFAR_CHECK_MSG(lim.channels < kInvalidChannel,
                   "dense channel ids (routers * ports) must fit ChannelId");
    OFAR_CHECK_MSG(lim.ports < kInvalidPort, "port count must fit PortId");
  }

  // ---- shard partition (DESIGN.md §10) ----
  // Contiguous router ranges; nodes follow their router. K = 1 (the
  // default) is one shard holding every router. The partition depends only
  // on (routers, sim_shards, shard_group_major), never on thread count. It
  // is computed before router construction because the per-VC hot state
  // lives in per-shard arenas (sim/flat_state.hpp).
  const u32 shard_count =
      std::min(std::max(cfg_.sim_shards, 1u), num_routers);
  shards_.resize(shard_count);
  shard_of_router_.assign(num_routers, 0);
  wheel_size_ =
      std::max({cfg_.local_latency, cfg_.global_latency, kEjectionLatency}) +
      1;
  const std::size_t slot_reserve =
      (kWheelSlotReserve + shard_count - 1) / shard_count;
  for (u32 s = 0; s < shard_count; ++s) {
    ShardState& sh = shards_[s];
    if (cfg_.shard_group_major) {
      // Group-major: boundaries land on group multiples, so a shard's
      // working set is a whole number of groups' cache footprint (a group's
      // routers and their intra-group wiring never straddle shards). Shards
      // with more shards than groups come out empty, which is harmless.
      const u64 groups = topo_.groups();
      sh.router_begin =
          static_cast<RouterId>(groups * s / shard_count * topo_.a());
      sh.router_end =
          static_cast<RouterId>(groups * (s + 1) / shard_count * topo_.a());
    } else {
      sh.router_begin =
          static_cast<RouterId>(u64{num_routers} * s / shard_count);
      sh.router_end =
          static_cast<RouterId>(u64{num_routers} * (s + 1) / shard_count);
    }
    for (RouterId r = sh.router_begin; r < sh.router_end; ++r)
      shard_of_router_[r] = s;
    sh.active_routers.reserve(sh.router_end - sh.router_begin);
    sh.alloc = std::make_unique<SeparableAllocator>(ports);
    sh.reqs.reserve(static_cast<std::size_t>(ports) * 8);
    sh.phit_wheel.resize(wheel_size_);
    sh.credit_wheel.resize(wheel_size_);
    for (auto& slot : sh.phit_wheel) slot.reserve(slot_reserve);
    for (auto& slot : sh.credit_wheel) slot.reserve(slot_reserve);
    sh.delivered.reserve(slot_reserve);
  }

  // ---- routers ----
  // Shells only: a router's FIFO/credit/arbiter state binds lazily on its
  // first touch (build_router), so untouched routers cost nothing beyond
  // the shell — the difference between ~2 GB of idle FIFO rings and a few
  // hundred MB of actually-used state at h=16. cfg.wiring_table (the
  // debug/reference mode) materializes the channel table and builds every
  // router eagerly, replicating the historical constructor.
  routers_.resize(num_routers);
  for (RouterId r = 0; r < num_routers; ++r) routers_[r].id = r;
  built_.assign(num_routers, 0);
  channel_phits_.assign(std::size_t{num_routers} * ports, 0);
  if (cfg_.wiring_table) {
    build_channels();
    for (RouterId r = 0; r < num_routers; ++r) build_router(r);
  }

  policy_ = make_policy(cfg_);
  pending_.resize(topo_.nodes());
  policy_->bind_lanes(shard_count);
  for (ShardState& sh : shards_) sh.view.init(*this);

  router_in_worklist_.assign(num_routers, 0);
  node_in_worklist_.assign(topo_.nodes(), 0);
  active_nodes_.reserve(topo_.nodes());
}

Network::~Network() = default;

u32 Network::num_shards() const noexcept {
  return static_cast<u32>(shards_.size());
}

std::size_t Network::active_router_count() const noexcept {
  std::size_t n = 0;
  for (const ShardState& sh : shards_) n += sh.active_routers.size();
  return n;
}

void Network::set_sim_threads(unsigned threads) {
  if (threads == 0) threads = 1;
  const unsigned clamped = std::min<unsigned>(threads, num_shards());
  if (clamped == sim_threads_) return;
  sim_threads_ = clamped;
  if (sim_threads_ > 1)
    shard_pool_ = std::make_unique<ShardPool>(sim_threads_);
  else
    shard_pool_.reset();
}

void Network::build_ring() {
  ring_ = std::make_unique<HamiltonianRing>(topo_, cfg_.ring_stride);
  const u32 n = topo_.routers();
  ring_out_.resize(n);
  ring_in_port_.assign(n, kInvalidPort);
  ring_in_first_vc_.assign(n, 0);
  ring_in_num_vcs_.assign(n, 0);
  for (RouterId r = 0; r < n; ++r) {
    RingOut& out = ring_out_[r];
    if (cfg_.ring == RingKind::kPhysical) {
      out.port = topo_.ring_port();
      out.first_vc = 0;
      out.num_vcs = cfg_.vcs_local;
      ring_in_port_[r] = topo_.ring_port();
      ring_in_first_vc_[r] = 0;
      ring_in_num_vcs_[r] = cfg_.vcs_local;
    } else {
      out.port = ring_->embedded_out_port(r);
      out.first_vc = ring_->step_crosses_group(r) ? cfg_.vcs_global
                                                  : cfg_.vcs_local;
      out.num_vcs = 1;
      // The input side on the *successor* is that port's paired input; it
      // is derived here from the predecessor's outgoing step.
      const RouterId pred = ring_->predecessor(r);
      const PortId pred_out = ring_->embedded_out_port(pred);
      if (ring_->step_crosses_group(pred)) {
        ring_in_port_[r] = topo_.global_peer(pred, pred_out).port;
      } else {
        ring_in_port_[r] =
            topo_.local_port(topo_.local_of(r), topo_.local_of(pred));
      }
      // The embedded ring VC rides on top of the receiving port's base VC
      // range, whose size is that port's class count (global when the
      // predecessor's step crosses groups, local otherwise).
      ring_in_first_vc_[r] = ring_->step_crosses_group(pred)
                                 ? cfg_.vcs_global
                                 : cfg_.vcs_local;
      ring_in_num_vcs_[r] = 1;
    }
  }
}

void Network::build_channels() {
  // Debug/reference mode only (cfg.wiring_table): materialize the dense-
  // indexed descriptor table with the historical per-class derivation. It
  // is kept deliberately separate from resolve_channel so the two wiring
  // derivations stay independent — the mode-equivalence test compares them
  // descriptor by descriptor and digest by digest.
  const u32 ports = ports_per_router_;
  channels_.assign(num_channels(), Channel{});
  auto add_channel = [this, ports](const Channel& ch) {
    channels_[std::size_t{ch.src_router} * ports + ch.src_port] = ch;
  };

  for (RouterId r = 0; r < topo_.routers(); ++r) {
    for (PortId port = 0; port < ports; ++port) {
      Channel ch;
      ch.src_router = r;
      ch.src_port = port;
      switch (topo_.port_class(port)) {
        case PortClass::kNode:
          ch.cls = ChannelClass::kEjection;
          ch.dst_node = topo_.node_at(r, port);
          ch.latency = kEjectionLatency;
          add_channel(ch);
          break;
        case PortClass::kLocal: {
          const u32 peer = topo_.local_peer(topo_.local_of(r), port);
          ch.cls = ChannelClass::kLocal;
          ch.dst_router = topo_.router_at(topo_.group_of(r), peer);
          ch.dst_port = topo_.local_port(peer, topo_.local_of(r));
          ch.latency = cfg_.local_latency;
          add_channel(ch);
          break;
        }
        case PortClass::kGlobal: {
          if (!topo_.global_port_wired(r, port)) break;  // trimmed topology
          const auto far = topo_.global_peer(r, port);
          ch.cls = ChannelClass::kGlobal;
          ch.dst_router = far.router;
          ch.dst_port = far.port;
          ch.latency = cfg_.global_latency;
          add_channel(ch);
          break;
        }
        case PortClass::kRing: {
          const RouterId succ = ring_->successor(r);
          const bool crosses = ring_->step_crosses_group(r);
          ch.cls = crosses ? ChannelClass::kRingGlobal
                           : ChannelClass::kRingLocal;
          ch.dst_router = succ;
          ch.dst_port = topo_.ring_port();
          ch.latency = crosses ? cfg_.global_latency : cfg_.local_latency;
          add_channel(ch);
          break;
        }
      }
    }
  }
}

bool Network::channel_wired(ChannelId c) const noexcept {
  if (c >= num_channels()) return false;
  const PortId port = static_cast<PortId>(c % ports_per_router_);
  if (topo_.port_class(port) != PortClass::kGlobal) return true;
  return topo_.global_port_wired(
      static_cast<RouterId>(c / ports_per_router_), port);
}

Channel Network::resolve_channel(ChannelId c) const {
  const u32 ports = ports_per_router_;
  const RouterId r = static_cast<RouterId>(c / ports);
  const PortId port = static_cast<PortId>(c % ports);
  OFAR_DCHECK(r < routers_.size());
  Channel ch;
  ch.src_router = r;
  ch.src_port = port;
  switch (topo_.port_class(port)) {
    case PortClass::kNode:
      ch.cls = ChannelClass::kEjection;
      ch.dst_node = topo_.node_at(r, port);
      ch.latency = kEjectionLatency;
      break;
    case PortClass::kLocal: {
      const u32 peer = topo_.local_peer(topo_.local_of(r), port);
      ch.cls = ChannelClass::kLocal;
      ch.dst_router = topo_.router_at(topo_.group_of(r), peer);
      ch.dst_port = topo_.local_port(peer, topo_.local_of(r));
      ch.latency = cfg_.local_latency;
      break;
    }
    case PortClass::kGlobal: {
      OFAR_DCHECK(topo_.global_port_wired(r, port));
      const auto far = topo_.global_peer(r, port);
      ch.cls = ChannelClass::kGlobal;
      ch.dst_router = far.router;
      ch.dst_port = far.port;
      ch.latency = cfg_.global_latency;
      break;
    }
    case PortClass::kRing: {
      const RouterId succ = ring_->successor(r);
      const bool crosses = ring_->step_crosses_group(r);
      ch.cls =
          crosses ? ChannelClass::kRingGlobal : ChannelClass::kRingLocal;
      ch.dst_router = succ;
      ch.dst_port = topo_.ring_port();
      ch.latency = crosses ? cfg_.global_latency : cfg_.local_latency;
      break;
    }
  }
  return ch;
}

void Network::input_shape(RouterId r, PortId port, u32& vcs,
                          u32& capacity) const {
  vcs = 0;
  capacity = 0;
  switch (topo_.port_class(port)) {
    case PortClass::kNode:
      vcs = cfg_.vcs_injection;
      capacity = cfg_.fifo_injection;
      break;
    case PortClass::kLocal:
      vcs = cfg_.vcs_local;
      capacity = cfg_.fifo_local;
      break;
    case PortClass::kGlobal:
      vcs = cfg_.vcs_global;
      capacity = cfg_.fifo_global;
      break;
    case PortClass::kRing: {
      // Physical ring input receives from the ring predecessor; size the
      // buffer for the wire class of that incoming hop.
      vcs = cfg_.vcs_local;
      const RouterId pred = ring_->predecessor(r);
      capacity = ring_->step_crosses_group(pred) ? cfg_.fifo_global
                                                 : cfg_.fifo_local;
      break;
    }
  }
  // Embedded escape ring: one extra VC on the port that receives the ring
  // channel (paper §IV-C / §VII).
  if (cfg_.ring == RingKind::kEmbedded && port == ring_in_port_[r]) vcs += 1;
  OFAR_CHECK_MSG(vcs <= 8, "input VC bitmask is 8 bits wide");
}

u64 Network::built_router_count() const noexcept {
  u64 n = 0;
  for (const ShardState& sh : shards_) n += sh.built_count;
  return n;
}

void Network::build_router(RouterId rid) {
  OFAR_DCHECK(built_[rid] == 0);
  ShardState& sh = shards_[shard_of_router_[rid]];
  Router& router = routers_[rid];
  const u32 ports = ports_per_router_;
  router.inputs.resize(ports);
  router.outputs.resize(ports);
  router.input_mask.assign(ports, 0);

  // Input side: FIFOs (packet-granularity ring sizing) and the incoming
  // channel id + latency per port (the credit-return path).
  u32 max_vcs = 1;
  for (PortId port = 0; port < ports; ++port) {
    u32 vcs = 0, cap = 0;
    input_shape(rid, port, vcs, cap);
    sh.arena.bind_inputs(router, port, vcs, cap,
                         VcFifo::slots_for(cap, cfg_.packet_size));
    router.buffer_capacity_phits += vcs * cap;
    max_vcs = std::max(max_vcs, vcs);
    InputPort& in = router.inputs[port];
    switch (topo_.port_class(port)) {
      case PortClass::kNode:
        break;  // injection port: no upstream channel
      case PortClass::kLocal: {
        const u32 peer = topo_.local_peer(topo_.local_of(rid), port);
        const RouterId src = topo_.router_at(topo_.group_of(rid), peer);
        const PortId src_port = topo_.local_port(peer, topo_.local_of(rid));
        in.in_channel = static_cast<ChannelId>(src * ports + src_port);
        in.in_latency = cfg_.local_latency;
        break;
      }
      case PortClass::kGlobal: {
        if (!topo_.global_port_wired(rid, port)) break;
        // Global links come in symmetric pairs: the channel feeding this
        // port is the peer endpoint's output channel.
        const auto far = topo_.global_peer(rid, port);
        in.in_channel = static_cast<ChannelId>(far.router * ports + far.port);
        in.in_latency = cfg_.global_latency;
        break;
      }
      case PortClass::kRing: {
        const RouterId pred = ring_->predecessor(rid);
        in.in_channel =
            static_cast<ChannelId>(pred * ports + topo_.ring_port());
        in.in_latency = ring_->step_crosses_group(pred) ? cfg_.global_latency
                                                        : cfg_.local_latency;
        break;
      }
    }
  }

  // Output side: channel id + cached latency, and credit counters sized
  // from the *arithmetic* downstream shape — never from the neighbour's
  // state, so building this router never forces its neighbours to build.
  for (PortId port = 0; port < ports; ++port) {
    const ChannelId id = static_cast<ChannelId>(rid * ports + port);
    if (!channel_wired(id)) continue;  // unwired global slot (trimmed)
    const Channel ch = resolve_channel(id);
    OutputPort& out = router.outputs[port];
    out.channel = id;
    out.latency = ch.latency;
    if (ch.is_ejection()) {
      sh.arena.bind_credits(router, port, 1, kEjectionCredits);
    } else {
      u32 dvcs = 0, dcap = 0;
      input_shape(ch.dst_router, ch.dst_port, dvcs, dcap);
      sh.arena.bind_credits(router, port, dvcs, dcap);
    }
  }

  router.input_arb.reserve(ports);
  router.output_arb.reserve(ports);
  for (PortId port = 0; port < ports; ++port) {
    router.input_arb.emplace_back(max_vcs);
    router.output_arb.emplace_back(ports);
  }

  built_[rid] = 1;
  ++sh.built_count;
}

void Network::set_traffic(std::unique_ptr<TrafficSource> source) {
  traffic_ = std::move(source);
}

// ---------------------------------------------------------------------------
// per-port queries
// ---------------------------------------------------------------------------

void Network::base_vc_range(RouterId r, PortId port, u32& first,
                            u32& count) const {
  first = 0;
  count = 0;
  switch (topo_.port_class(port)) {
    case PortClass::kNode: count = 1; break;  // ejection output: one lane
    case PortClass::kLocal: count = cfg_.vcs_local; break;
    case PortClass::kGlobal: count = cfg_.vcs_global; break;
    case PortClass::kRing: count = 0; break;  // escape-only port
  }
  (void)r;
}

bool Network::is_ring_input(RouterId r, PortId port, VcId vc) const {
  if (ring_ == nullptr) return false;
  if (port != ring_in_port_[r]) return false;
  return vc >= ring_in_first_vc_[r] &&
         vc < ring_in_first_vc_[r] + ring_in_num_vcs_[r];
}

double Network::base_occupancy(const Router& r, PortId port) const {
  u32 first, count;
  base_vc_range(r.id, port, first, count);
  if (count == 0 || !r.outputs[port].wired()) return 1.0;
  return r.outputs[port].occupancy(first, count);
}

bool Network::base_available(const Router& r, PortId port) const {
  const OutputPort& out = r.outputs[port];
  if (!out.wired() || out.busy()) return false;
  u32 first, count;
  base_vc_range(r.id, port, first, count);
  VcId vc;
  return count != 0 && out.best_vc(first, count, cfg_.packet_size, vc);
}

bool Network::ring_can_take_packet(const Router& r) const {
  if (ring_ == nullptr) return false;
  const RingOut& ro = ring_out_[r.id];
  if (ro.port == kInvalidPort) return false;
  const OutputPort& out = r.outputs[ro.port];
  if (!out.wired() || out.busy()) return false;
  for (u32 v = ro.first_vc; v < ro.first_vc + ro.num_vcs; ++v)
    if (out.credits[v] >= cfg_.packet_size) return true;
  return false;
}

bool Network::best_base_vc(const Router& r, PortId port, VcId& vc) const {
  u32 first, count;
  base_vc_range(r.id, port, first, count);
  if (count == 0) return false;
  return r.outputs[port].best_vc(first, count, cfg_.packet_size, vc);
}

u32 Network::injection_free_phits(NodeId node) const {
  const RouterId rid = topo_.router_of_node(node);
  const PortId port = topo_.node_port(topo_.node_slot(node));
  if (built_[rid] == 0) {  // untouched router: every injection FIFO is empty
    u32 vcs, cap;
    input_shape(rid, port, vcs, cap);
    return vcs * cap;
  }
  const InputPort& in = routers_[rid].inputs[port];
  u32 free = 0;
  for (const VcFifo& f : in.vcs) free += f.capacity() - f.stored_phits();
  return free;
}

// ---------------------------------------------------------------------------
// injection
// ---------------------------------------------------------------------------

void Network::offer(NodeId src, NodeId dst, u16 tag) {
  OFAR_DCHECK(src != dst && dst < topo_.nodes());
  stats_.on_generated(tag, cfg_.packet_size);
  pending_[src].push_back({dst, tag, now_});
  ++pending_total_;
  mark_node_pending(src);
}

bool Network::try_inject(NodeId src, NodeId dst, u16 tag) {
  const RouterId rid = topo_.router_of_node(src);
  ensure_router_built(rid);  // serial phase
  Router& r = routers_[rid];
  if (r.throttled) return false;
  InputPort& in = r.inputs[topo_.node_port(topo_.node_slot(src))];
  u32 best_vc;
  if (!in.best_fit_vc(cfg_.packet_size, best_vc)) return false;
  stats_.on_generated(tag, cfg_.packet_size);
  place_packet(src, {dst, tag, now_});
  return true;
}

void Network::place_packet(NodeId src, const Offer& offer) {
  const RouterId rid = topo_.router_of_node(src);
  ensure_router_built(rid);  // serial phase
  Router& r = routers_[rid];
  InputPort& in = r.inputs[topo_.node_port(topo_.node_slot(src))];
  u32 best_vc;
  const bool fits = in.best_fit_vc(cfg_.packet_size, best_vc);
  OFAR_DCHECK(fits);  // caller checked space
  (void)fits;

  const PacketId id = pool_.create();
  Packet& pkt = pool_.get(id);
  pkt.src = src;
  pkt.dst = offer.dst;
  pkt.dst_router = topo_.router_of_node(offer.dst);
  pkt.size = static_cast<u16>(cfg_.packet_size);
  pkt.pattern_tag = offer.tag;
  pkt.birth = offer.birth;
  pkt.last_progress = now_;
  pkt.flag_group = topo_.group_of(r.id);
  // Injection is always a serial phase, so the sequence number is identical
  // at any sim_threads — the basis of deterministic trace sampling.
  pkt.seq = injected_total_;
  pkt.traced = tracer_ && trace::should_sample(pkt.seq, trace_sample_);

  policy_->on_inject(*this, pkt, r.id);

  if (in.vcs[best_vc].empty()) ++r.routable_heads;  // becomes a head
  in.vcs[best_vc].push_whole_packet(id, cfg_.packet_size);
  ++r.buffered_packets;
  r.buffered_phits += cfg_.packet_size;
  r.input_mask[topo_.node_port(topo_.node_slot(src))] |=
      static_cast<u8>(1u << best_vc);
  mark_router_active(r.id);
  ++injected_total_;
  stats_.on_injected();
  if (pkt.traced) {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kInject;
    ev.packet = id;
    ev.cycle = now_;
    ev.router = r.id;
    ev.src = src;
    ev.dst = offer.dst;
    ev.seq = pkt.seq;
    tracer_(ev);  // serial injection phase  // lint: allow(trace-emit)
  }
}

// ---------------------------------------------------------------------------
// cycle phases
// ---------------------------------------------------------------------------

void Network::deliver_packet(PacketId id) {
  const Packet& pkt = pool_.get(id);
  ++delivered_total_;
  stats_.on_delivered(pkt.pattern_tag, pkt.size, now_ - pkt.birth, pkt.birth,
                      pkt.total_hops);
  if (tracer_ && pkt.traced) {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kDeliver;
    ev.packet = id;
    ev.cycle = now_;
    ev.router = pkt.dst_router;
    // Delivery happens over the ejection port; fill the kGrant-shaped
    // fields explicitly instead of leaving stale defaults (see the field
    // validity table in network.hpp).
    ev.out_port = topo_.node_port(topo_.node_slot(pkt.dst));
    ev.out_vc = 0;
    ev.misroute = MisrouteKind::kNone;
    ev.ring_move = false;
    ev.src = pkt.src;
    ev.dst = pkt.dst;
    ev.seq = pkt.seq;
    // Serial phase: commit_shard_deliveries runs deliveries in
    // shard-ascending order.
    tracer_(ev);  // lint: allow(trace-emit)
  }
  pool_.destroy(id);
}

void Network::mark_router_active(RouterId r) {
  if (router_in_worklist_[r]) return;
  router_in_worklist_[r] = 1;
  ShardState& sh = shards_[shard_of_router_[r]];
  if (!sh.active_routers.empty() && r < sh.active_routers.back())
    sh.sorted = false;
  sh.active_routers.push_back(r);
}

void Network::mark_node_pending(NodeId n) {
  if (node_in_worklist_[n]) return;
  node_in_worklist_[n] = 1;
  if (!active_nodes_.empty() && n < active_nodes_.back())
    active_nodes_sorted_ = false;
  active_nodes_.push_back(n);
}

void Network::advance_transfers(ShardState& sh) {
  // The worklist prune is fused into this pass so the list is only walked
  // once before allocation: restore sorted order (marks append out of
  // order), then in one sweep drop routers that went idle since the last
  // cycle and advance the survivors' transfers. Routers that drain *during*
  // this cycle stay listed until the next cycle's sweep — update_throttle
  // relies on seeing a drained router once more to release its latch, and
  // compaction preserves the sorted order for the later phases.
  if (!sh.sorted) {
    std::sort(sh.active_routers.begin(), sh.active_routers.end());
    sh.sorted = true;
  }
  // Wheel slot of an event `latency` cycles ahead (1 <= latency <
  // wheel_size_), without a division per event.
  const u32 now_slot = static_cast<u32>(now_ % wheel_size_);
  const auto slot_after = [this, now_slot](u32 latency) {
    OFAR_DCHECK(latency >= 1 && latency < wheel_size_);
    const u32 slot = now_slot + latency;
    return slot >= wheel_size_ ? slot - wheel_size_ : slot;
  };
  std::size_t w = 0;
  for (const RouterId id : sh.active_routers) {
    Router& r = routers_[id];
    if (!r.has_activity()) {
      router_in_worklist_[id] = 0;
      continue;
    }
    sh.active_routers[w++] = id;
    u64 mask = r.active_out_mask;
    while (mask != 0) {
      const u32 port = static_cast<u32>(__builtin_ctzll(mask));
      mask &= mask - 1;
      OutputPort& out = r.outputs[port];
      OFAR_DCHECK(out.busy());
      InputPort& in = r.inputs[out.src_port];
      VcFifo& fifo = in.vcs[out.src_vc];
      OFAR_DCHECK(!fifo.empty() && fifo.head() == out.active);
      // Cached at grant time (commit_grant): the streaming loop never has
      // to touch the packet pool.
      const u32 size = out.active_size;
      OFAR_DCHECK(size == pool_.get(out.active).size);
      const bool head = out.phits_left == size;
      const bool tail = out.phits_left == 1;
      const bool popped = fifo.pop_phit(size);
      OFAR_DCHECK(popped == tail);
      // Latencies are cached at wiring time.
      if (in.in_channel != kInvalidChannel)
        sh.credit_wheel[slot_after(in.in_latency)].push_back(
            {in.in_channel, out.src_vc});
      ++channel_phits_[out.channel];  // flat counter; shard owns src router
      sh.phit_wheel[slot_after(out.latency)].push_back(
          {out.channel, out.active, out.active_vc, head ? u8{1} : u8{0},
           tail ? u8{1} : u8{0}});
      --out.phits_left;
      --r.buffered_phits;
      if (popped) {
        --r.buffered_packets;
        if (fifo.empty()) {
          r.input_mask[out.src_port] &=
              static_cast<u8>(~(1u << out.src_vc));
        } else {
          // The queued entry behind the departing packet becomes the head;
          // head_busy is cleared below (popped implies phits_left hits 0).
          ++r.routable_heads;
        }
      }
      if (out.phits_left == 0) {
        out.active = kInvalidPacket;
        in.head_busy[out.src_vc] = 0;
        --r.active_transfers;
        r.active_out_mask &= ~(1ull << port);
      }
    }
  }
  sh.active_routers.resize(w);
}

void Network::do_allocation(ShardState& sh, u32 lane) {
  // Provenance is only materialised for traced heads (sparse side buffer),
  // so one record is reused across the scan and reset only when a traced
  // head actually wants it — the untraced hot path never touches it.
  RouteProvenance prov;
  for (const RouterId id : sh.active_routers) {
    Router& r = routers_[id];
    // No routable head means the port scan below would find nothing to
    // request: every buffered packet is either mid-transfer or queued
    // behind one. Skipping is observationally identical (an empty request
    // set never reaches the allocator, so no arbiter state changes) and
    // saves the scan for the packet_size cycles each grant streams.
    if (r.routable_heads == 0) continue;
    sh.reqs.clear();
    sh.provs.clear();
    // Rebind the shard's credit view to this router: one O(1) epoch bump,
    // after which every route() call of this scan reads its base-VC
    // queries from at most one per-port refresh. Exact by construction —
    // no credit or output-busy state changes until commit_grant below.
    sh.view.bind(r);
    // Saturated fast path: when no output could take a whole packet and
    // the escape ring cannot move one either, every route() call below
    // would return none — and for pure-when-blocked policies a failing
    // call draws no RNG and touches nothing, so the scan itself can be
    // skipped. Telemetry and tracing observe the failing calls (per-head
    // stall attribution, provenance events), so either disables the skip.
    if (skip_blocked_scans_ && sh.view.avail_mask() == 0 &&
        !ring_can_take_packet(r))
      continue;
    // Pass 1: gather routable heads from the flat FIFO arena and prefetch
    // each head packet's cache line. Head packets are scattered across the
    // pool, so letting the loads overlap here (instead of stalling pass 2
    // one miss at a time) is worth a second, purely local walk.
    sh.heads.clear();
    for (PortId port = 0; port < r.inputs.size(); ++port) {
      u8 mask = r.input_mask[port];
      if (mask == 0) continue;
      const InputPort& in = r.inputs[port];
      while (mask != 0) {
        const VcId vc = static_cast<VcId>(__builtin_ctz(mask));
        mask &= static_cast<u8>(mask - 1);
        if (!in.has_head(vc)) continue;
        const PacketId pid = in.vcs[vc].head();
        __builtin_prefetch(&pool_.get(pid));
        sh.heads.push_back({port, vc, pid});
      }
    }
    // Pass 2: one route() call per head, in the same port/VC order.
    for (const ShardState::HeadRef& h : sh.heads) {
      Packet& pkt = pool_.get(h.pid);
      const bool want_prov = pkt.traced && tracer_;
      if (want_prov) prov = RouteProvenance{};
      RouteContext rctx{*this, sh.view, r.id,         h.port,
                        h.vc,  pkt,    lane, want_prov ? &prov : nullptr};
      const RouteChoice choice = policy_->route(rctx);
      if (!choice.valid) {
        if (telem_) telem_->note_credit_stall(r.id, h.port, h.vc);
        continue;
      }
      OFAR_DCHECK(!r.outputs[choice.out_port].busy());
      OFAR_DCHECK(r.outputs[choice.out_port].credits[choice.out_vc] >=
                  cfg_.packet_size);
      if (want_prov)
        sh.provs.emplace_back(static_cast<u32>(sh.reqs.size()), prov);
      sh.reqs.push_back({h.port, h.vc, h.pid, choice, false});
    }
    if (sh.reqs.empty()) continue;
    sh.alloc->run(r, sh.reqs, cfg_.allocator_iterations, now_);
    std::size_t pi = 0;  // provs is sorted by request index by construction
    for (u32 i = 0; i < sh.reqs.size(); ++i) {
      const AllocRequest& rq = sh.reqs[i];
      const RouteProvenance* prov = nullptr;
      while (pi < sh.provs.size() && sh.provs[pi].first < i) ++pi;
      if (pi < sh.provs.size() && sh.provs[pi].first == i)
        prov = &sh.provs[pi].second;
      if (rq.granted) {
        commit_grant(sh, r, rq, prov);
      } else if (telem_) {
        telem_->note_alloc_stall(r.id, rq.in_port, rq.in_vc);
      }
    }
  }
}

void Network::commit_grant(ShardState& sh, Router& r, const AllocRequest& rq,
                           const RouteProvenance* prov) {
  OutputPort& out = r.outputs[rq.choice.out_port];
  Packet& pkt = pool_.get(rq.packet);
  OFAR_DCHECK(!out.busy());
  OFAR_DCHECK(out.credits[rq.choice.out_vc] >= pkt.size);

  // Queueing delay of this hop, captured before last_progress is updated.
  const Cycle queue_wait = now_ - pkt.last_progress;

  out.credits[rq.choice.out_vc] -= pkt.size;
  out.active = rq.packet;
  out.active_vc = rq.choice.out_vc;
  out.src_port = rq.in_port;
  out.src_vc = rq.in_vc;
  out.phits_left = pkt.size;
  out.active_size = pkt.size;
  ++r.active_transfers;
  r.active_out_mask |= 1ull << rq.choice.out_port;
  r.inputs[rq.in_port].head_busy[rq.in_vc] = 1;
  OFAR_DCHECK(r.routable_heads > 0);
  --r.routable_heads;  // head now mid-transfer

  pkt.last_progress = now_;

  const bool ring_move =
      rq.choice.enter_ring || (pkt.in_ring && !rq.choice.exit_ring);
  // Stats writes would race across shards: count here, and let
  // commit_shard_staging fold the counts into stats_ in shard order.
  if (rq.choice.enter_ring) {
    pkt.in_ring = true;
    if (pkt.ring_entered)
      ++sh.ring_reentries;
    else
      ++sh.ring_first_entries;
    pkt.ring_entered = true;
  } else if (rq.choice.exit_ring) {
    pkt.in_ring = false;
    ++pkt.ring_exits;
    ++sh.ring_exits;
  }
  switch (rq.choice.misroute) {
    case MisrouteKind::kLocal:
      pkt.local_misrouted = true;
      pkt.flag_group = topo_.group_of(r.id);
      ++sh.local_misroutes;
      break;
    case MisrouteKind::kGlobal:
      pkt.global_misrouted = true;
      ++sh.global_misroutes;
      break;
    case MisrouteKind::kNone:
      break;
  }
  if (tracer_ && pkt.traced) {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kGrant;
    ev.packet = rq.packet;
    ev.cycle = now_;
    ev.router = r.id;
    ev.out_port = rq.choice.out_port;
    ev.out_vc = rq.choice.out_vc;
    ev.misroute = rq.choice.misroute;
    ev.ring_move = ring_move;
    ev.src = pkt.src;
    ev.dst = pkt.dst;
    ev.seq = pkt.seq;
    ev.in_port = rq.in_port;
    ev.in_vc = rq.in_vc;
    ev.queue_wait = static_cast<u32>(
        std::min<Cycle>(queue_wait, ~u32{0}));
    if (prov != nullptr) ev.prov = *prov;
    sh.traces.push_back(ev);  // flushed serially, in shard order
    // Ring transitions get explicit marker events right after the grant,
    // so consumers need not re-derive them from the grant flags.
    if (rq.choice.enter_ring || rq.choice.exit_ring) {
      ev.kind = rq.choice.enter_ring ? TraceEvent::Kind::kRingEnter
                                     : TraceEvent::Kind::kRingExit;
      ev.ring_move = true;
      sh.traces.push_back(ev);
    }
  }
  if (!ring_move) {
    switch (topo_.port_class(rq.choice.out_port)) {
      case PortClass::kLocal:
        ++pkt.local_hops;
        ++pkt.local_hops_in_group;
        ++pkt.total_hops;
        break;
      case PortClass::kGlobal:
        ++pkt.global_hops;
        pkt.local_hops_in_group = 0;
        ++pkt.total_hops;
        break;
      default:
        break;
    }
  } else {
    ++pkt.total_hops;
  }
}

void Network::update_throttle() {
  // Only routers on the worklist can have a non-zero occupancy or a set
  // throttle latch: a latch is only set above throttle_on (so the router
  // buffers phits and is listed) and is released by this sweep in the very
  // cycle the router drains — before the next cycle's prune (in
  // advance_transfers) drops it. Idle routers therefore behave exactly as
  // under the full scan.
  for (const ShardState& sh : shards_) {
    for (const RouterId id : sh.active_routers) {
      Router& r = routers_[id];
      const double occ = static_cast<double>(r.buffered_phits) /
                         static_cast<double>(r.buffer_capacity_phits);
      if (r.throttled) {
        if (occ < cfg_.throttle_off) r.throttled = false;
      } else if (occ > cfg_.throttle_on) {
        r.throttled = true;
      }
    }
  }
}

void Network::do_injection() {
  if (cfg_.congestion_throttle) update_throttle();
  if (traffic_) traffic_->tick(*this);
  if (active_nodes_.empty()) return;
  if (!active_nodes_sorted_) {
    std::sort(active_nodes_.begin(), active_nodes_.end());
    active_nodes_sorted_ = true;
  }
  std::size_t w = 0;
  for (const NodeId n : active_nodes_) {
    auto& queue = pending_[n];
    while (!queue.empty()) {
      // place_packet requires space; probe with the same best-fit rule the
      // placement uses (InputPort::best_fit_vc), so probe and placement
      // cannot diverge.
      const RouterId rid = topo_.router_of_node(n);
      ensure_router_built(rid);  // serial phase
      const Router& r = routers_[rid];
      if (r.throttled) break;
      const InputPort& in = r.inputs[topo_.node_port(topo_.node_slot(n))];
      u32 vc;
      if (!in.best_fit_vc(cfg_.packet_size, vc)) break;
      place_packet(n, queue.front());
      queue.pop_front();
      --pending_total_;
    }
    if (queue.empty()) {
      node_in_worklist_[n] = 0;
    } else {
      active_nodes_[w++] = n;
    }
  }
  active_nodes_.resize(w);
}

void Network::run_watchdog() {
  u64 stalled = 0, worst = 0;
  pool_.for_each_live([&](PacketId, const Packet& pkt) {
    const u64 wait = now_ - pkt.last_progress;
    worst = std::max(worst, wait);
    if (wait > cfg_.deadlock_timeout) ++stalled;
  });
  stats_.on_watchdog(stalled, worst);
  if (telem_ && stalled > 0) telem_->on_watchdog_trip(*this, stalled, worst);
  if (trace_ && stalled > 0) trace_->on_deadlock(now_, stalled, worst);
}

void Network::run_shard_phase(const std::function<void(u32)>& fn) {
  if (shard_pool_ != nullptr) {
    shard_pool_->parallel_phase(num_shards(), fn);
  } else {
    // Single-threaded execution of the same shard program, in shard order.
    // Shards are mutually independent within a phase, so this is exactly
    // what any schedule of the pool computes — the thread-invariance
    // contract in one line.
    for (u32 s = 0; s < num_shards(); ++s) fn(s);
  }
}

void Network::deliver_events_shard(ShardState& sh, u32 shard) {
  // Every shard scans the current slot of every shard's wheels and applies
  // only the events it owns: a phit event belongs to the destination
  // router's shard (it fills that router's input FIFO), an ejection to the
  // source router's shard (its effect — the delivery — is staged anyway), a
  // credit to the source router's shard (it replenishes that router's
  // output credits). The scan itself is read-only and the slots are cleared
  // serially afterwards, so shards share them safely. The events of one
  // slot go to distinct (channel, VC) targets, so only the order of the
  // ejections matters: all of them were generated one cycle ago by their
  // source router's shard, so scanning the wheels in shard order stages
  // them in generation order.
  const u32 slot = static_cast<u32>(now_ % wheel_size_);
  for (const ShardState& from : shards_) {
    for (const PhitEvent& e : from.phit_wheel[slot]) {
      const Channel ch = channel(e.ch);
      if (ch.is_ejection()) {
        if (shard_of_router_[ch.src_router] != shard) continue;
        OFAR_DCHECK(ch.dst_node == pool_.get(e.pkt).dst);
        if (e.tail) sh.delivered.push_back(e.pkt);
        continue;
      }
      if (shard_of_router_[ch.dst_router] != shard) continue;
      // Lazy build is parallel-legal here: the destination router belongs
      // to this shard, and everything build_router writes (router shell,
      // arena chunks, built_ flag, shard built counter) is shard-local.
      ensure_router_built(ch.dst_router);
      Router& dst = routers_[ch.dst_router];
      VcFifo& fifo = dst.inputs[ch.dst_port].vcs[e.vc];
      if (e.head) {
        if (fifo.empty()) ++dst.routable_heads;  // becomes a head
        fifo.push_packet(e.pkt);
        ++dst.buffered_packets;
        dst.input_mask[ch.dst_port] |= static_cast<u8>(1u << e.vc);
        // Continuation phits never need a mark: a FIFO entry is only
        // popped once all its phits arrived (cut-through pop requires
        // sent<=arrived), so their head's mark is still in force when they
        // land.
        mark_router_active(ch.dst_router);
      } else {
        fifo.push_phit();
      }
      ++dst.buffered_phits;
      OFAR_DCHECK(fifo.stored_phits() <= fifo.capacity());
    }
  }
  for (const ShardState& from : shards_) {
    for (const CreditEvent& e : from.credit_wheel[slot]) {
      // Only src_router/src_port are needed — a plain divmod on the id.
      const RouterId src_r = static_cast<RouterId>(e.ch / ports_per_router_);
      if (shard_of_router_[src_r] != shard) continue;
      OFAR_DCHECK(built_[src_r] != 0);  // credits only return to senders
      Router& src = routers_[src_r];
      OutputPort& out =
          src.outputs[static_cast<PortId>(e.ch % ports_per_router_)];
      OFAR_DCHECK(e.vc < out.credits.size());
      ++out.credits[e.vc];
      OFAR_DCHECK(out.credits[e.vc] <= out.credit_cap[e.vc]);
    }
  }
}

void Network::commit_shard_deliveries() {
  // Safe to clear before the deliveries commit: deliver_packet never
  // touches the wheels, and no event can target the current slot (every
  // latency is >= 1 and wheel_size_ >= 2).
  const u32 slot = static_cast<u32>(now_ % wheel_size_);
  for (ShardState& sh : shards_) {
    sh.phit_wheel[slot].clear();
    sh.credit_wheel[slot].clear();
    for (const PacketId id : sh.delivered) deliver_packet(id);
    sh.delivered.clear();
  }
}

void Network::commit_shard_staging() {
  for (ShardState& sh : shards_) {
    if (tracer_) {
      // Shard-ascending flush of per-shard staging: THE reviewed commit
      // path for grant-phase trace events (trace-emit lint rule).
      for (const TraceEvent& ev : sh.traces) tracer_(ev);  // lint: allow(trace-emit)
    }
    sh.traces.clear();
    stats_.on_ring_enters(sh.ring_first_entries, sh.ring_reentries);
    stats_.on_ring_exits(sh.ring_exits);
    stats_.on_local_misroutes(sh.local_misroutes);
    stats_.on_global_misroutes(sh.global_misroutes);
    sh.ring_first_entries = sh.ring_reentries = sh.ring_exits = 0;
    sh.local_misroutes = sh.global_misroutes = 0;
  }
}

void Network::step() {
  // Re-evaluated every cycle: tracing/telemetry can be toggled between
  // runs, and the blocked-scan skip must never drop their per-head
  // observations (see do_allocation).
  skip_blocked_scans_ = policy_->blocked_route_is_pure() &&
                        tracer_ == nullptr && telem_ == nullptr;
  if (telem_ != nullptr) {
    step_instrumented();
    return;
  }
  run_shard_phase([this](u32 s) { deliver_events_shard(shards_[s], s); });
  commit_shard_deliveries();
  policy_->tick(*this);
  // Transfers and allocation fuse into one parallel phase: during both, a
  // shard reads and writes only its own routers (allocation consumes credit
  // state only the same shard's transfers touch), so no barrier is needed
  // between them within a shard program.
  run_shard_phase([this](u32 s) {
    advance_transfers(shards_[s]);  // also prunes + sorts the worklist
    do_allocation(shards_[s], s);
  });
  commit_shard_staging();
  do_injection();
  if (now_ % kWatchdogPeriod == 0 && now_ != 0) run_watchdog();
  ++now_;
  if (now_ >= next_audit_) [[unlikely]] run_audit();
}

void Network::step_instrumented() {
  // Identical staging content and commit order as step(); the only
  // difference is an extra barrier between transfers and allocation so the
  // profiler can attribute their time separately. Digests are unaffected.
  PhaseProfiler& prof = telem_->profiler();
  prof.start_cycle(now_);
  run_shard_phase([this](u32 s) { deliver_events_shard(shards_[s], s); });
  commit_shard_deliveries();
  prof.phase_done(SimPhase::kEventDelivery);
  policy_->tick(*this);
  prof.phase_done(SimPhase::kPolicyTick);
  run_shard_phase([this](u32 s) { advance_transfers(shards_[s]); });
  prof.phase_done(SimPhase::kTransfers);
  run_shard_phase([this](u32 s) { do_allocation(shards_[s], s); });
  commit_shard_staging();
  prof.phase_done(SimPhase::kAllocation);
  do_injection();
  prof.phase_done(SimPhase::kInjection);
  const bool watchdog = now_ % kWatchdogPeriod == 0 && now_ != 0;
  if (watchdog) {
    run_watchdog();
    prof.phase_done(SimPhase::kWatchdog);
  }
  prof.end_cycle(watchdog);
  ++now_;
  if (now_ >= next_audit_) [[unlikely]] run_audit();
  telem_->maybe_sample(*this, now_);
}

void Network::enable_telemetry(const TelemetryConfig& tcfg) {
  telem_ = std::make_unique<Telemetry>(*this, tcfg);
}

void Network::enable_tracing(const trace::TracerConfig& tcfg) {
  set_trace_sampling(tcfg.sample);
  trace_ = std::make_unique<trace::PacketTracer>(*this, tcfg);
  trace::PacketTracer* sink = trace_.get();
  tracer_ = [sink](const TraceEvent& ev) {
    // tracer_ only fires from serial sections (direct emission sites carry
    // lint waivers; staged events flush via commit_shard_staging).
    tsa::serial_phase.assert_held();
    sink->on_event(ev);
  };
}

void Network::enable_audit(Cycle interval) {
  if (interval == 0) {
    audit_.reset();
    audit_interval_ = 0;
    next_audit_ = ~Cycle{0};
    return;
  }
  audit_ = std::make_unique<verify::InvariantAuditor>(*this);
  audit_interval_ = interval;
  next_audit_ = now_ + interval;
}

void Network::run_audit() {
  next_audit_ = now_ + audit_interval_;
  const verify::AuditReport report = audit_->run_all();
  if (!report.ok()) [[unlikely]] {
    std::fputs(report.to_string().c_str(), stderr);
    // Post-mortem before the abort: the flight recorder's last-N events per
    // router are exactly the forensics a violated invariant needs.
    if (trace_) trace_->on_audit_failure(now_, report.to_json());
    std::abort();
  }
}

void Network::run(u64 cycles) {
  for (u64 i = 0; i < cycles; ++i) step();
}

bool Network::check_flow_conservation() const {
  verify::InvariantAuditor auditor(*this);
  verify::AuditReport report;
  auditor.check_credit_conservation(report);
  return report.ok();
}

bool Network::check_quiescent() const {
  if (!drained()) return false;
  for (const Router& r : routers_) {
    if (r.buffered_packets != 0 || r.active_transfers != 0 ||
        r.active_out_mask != 0)
      return false;
    for (const InputPort& in : r.inputs)
      for (const VcFifo& f : in.vcs)
        if (!f.empty() || f.stored_phits() != 0) return false;
    for (const OutputPort& out : r.outputs) {
      if (out.busy()) return false;
      for (std::size_t v = 0; v < out.credits.size(); ++v)
        if (out.credits[v] != out.credit_cap[v] &&
            out.credit_cap[v] != (1u << 30))  // ejection sinks drift by design
          return false;
    }
  }
  for (const ShardState& sh : shards_) {
    for (const auto& slot : sh.phit_wheel)
      if (!slot.empty()) return false;
    for (const auto& slot : sh.credit_wheel)
      if (!slot.empty()) return false;
  }
  return true;
}

bool Network::check_worklists() const {
  verify::InvariantAuditor auditor(*this);
  verify::AuditReport report;
  auditor.check_worklists(report);
  return report.ok();
}

}  // namespace ofar
