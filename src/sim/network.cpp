#include "sim/network.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.hpp"
#include "trace/trace.hpp"
#include "trace/tracer.hpp"

namespace ofar {

const char* to_string(TraceEvent::Kind k) noexcept {
  switch (k) {
    case TraceEvent::Kind::kInject: return "inject";
    case TraceEvent::Kind::kGrant: return "grant";
    case TraceEvent::Kind::kDeliver: return "deliver";
  }
  return "unknown";
}

namespace {
constexpr u32 kEjectionLatency = 1;
constexpr u32 kEjectionCredits = 1u << 30;  // sink: no grant takes any
constexpr Cycle kWatchdogPeriod = 4096;
}  // namespace

Network::Network(const SimConfig& cfg)
    : cfg_(cfg),
      topo_(cfg.h, cfg.groups, cfg.ring == RingKind::kPhysical) {
  const std::string err = cfg_.validate();
  OFAR_CHECK_MSG(err.empty(), err.c_str());

  if (cfg_.ring != RingKind::kNone) build_ring();

  const u32 ports = topo_.ports_per_router();
  const u32 num_routers = topo_.routers();
  ports_per_router_ = Divisor(ports);
  OFAR_CHECK_MSG(ports <= 64, "active-output bitmask is 64 bits wide");

  // ---- id-width validation against the topology trait ----
  // All entity counts are computed in u64 and checked against the compact
  // 32-bit id types BEFORE any truncating arithmetic runs, so an oversized
  // request fails loudly instead of wrapping. The invalid sentinels must
  // stay representable, hence the strict compares.
  // The widest input port (the embedded ring adds a VC to one port) also
  // sizes each router's wake-mask slots.
  park_stride_ =
      std::max({cfg_.vcs_injection, cfg_.vcs_local, cfg_.vcs_global}) +
      (cfg_.ring == RingKind::kEmbedded ? 1u : 0u);
  {
    const Dragonfly::Limits lim = topo_.limits(park_stride_);
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
  OFAR_CHECK_MSG(u64{wheel_size_} * shard_count <= ~u32{0},
                 "event wheel buckets must fit 32-bit offsets");
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
    // Buckets start empty and grow to their own high-water mark once
    // (clear() keeps capacity): a warm start would cost K^2 reservations.
    sh.phit_wheel.resize(std::size_t{wheel_size_} * shard_count);
    sh.credit_wheel.resize(std::size_t{wheel_size_} * shard_count);
  }

  // ---- routers ----
  // Shells only: a router's FIFO/credit/arbiter state binds lazily on its
  // first touch (build_router), so untouched routers cost nothing beyond
  // the shell — the difference between ~2 GB of idle FIFO rings and a few
  // hundred MB of actually-used state at h=16.
  routers_.resize(num_routers);
  for (RouterId r = 0; r < num_routers; ++r) routers_[r].id = r;
  built_.assign(num_routers, 0);
  channel_phits_.assign(std::size_t{num_routers} * ports, 0);

  policy_ = make_policy(cfg_);
  pending_.resize(topo_.nodes());
  policy_->bind_lanes(shard_count);
  for (ShardState& sh : shards_) sh.view.init(*this);

  router_in_worklist_.assign(num_routers, 0);
  node_ready_.assign(topo_.nodes(), 0);
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
  const unsigned clamped = std::clamp(threads, 1u, num_shards());
  if (clamped != sim_threads())
    shard_pool_ = std::make_unique<ShardPool>(clamped);
}

void Network::build_ring() {
  ring_ = std::make_unique<HamiltonianRing>(topo_, cfg_.ring_stride);
  const u32 n = topo_.routers();
  if (cfg_.ring == RingKind::kPhysical) {
    ring_in_port_.assign(n, topo_.ring_port());
    return;
  }
  ring_in_port_.resize(n);
  // The embedded ring enters r through the input paired with its
  // predecessor's outgoing step: a global port when that step crosses
  // groups, a local one otherwise.
  for (RouterId r = 0; r < n; ++r) {
    const RouterId pred = ring_->predecessor(r);
    const PortId pred_out = ring_->embedded_out_port(pred);
    ring_in_port_[r] =
        ring_->step_crosses_group(pred)
            ? topo_.global_peer(pred, pred_out).port
            : topo_.local_port(topo_.local_of(r), topo_.local_of(pred));
  }
}

bool Network::channel_wired(ChannelId c) const noexcept {
  if (c >= num_channels()) return false;
  const auto [r, port] = channel_source(c);
  if (topo_.port_class(port) != PortClass::kGlobal) return true;
  return topo_.global_port_wired(r, port);
}

Channel Network::channel(ChannelId c) const {
  OFAR_DCHECK(channel_wired(c));
  const auto [r, port] = channel_source(c);
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
  const u32 ports = ports_per_router_.value();
  router.inputs.resize(ports);
  router.outputs.resize(ports);
  router.input_mask.assign(ports, 0);

  // Input side: FIFOs (packet-granularity ring sizing) and the incoming
  // channel id + wheel offset per port (the credit-return path).
  const u32 shard_count = num_shards();
  const auto offset = [this, shard_count](u32 latency, RouterId applier) {
    return latency * shard_count + shard_of_router_[applier];
  };
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
        in.credit_offset = offset(cfg_.local_latency, src);
        break;
      }
      case PortClass::kGlobal: {
        if (!topo_.global_port_wired(rid, port)) break;
        // Global links come in symmetric pairs: the channel feeding this
        // port is the peer endpoint's output channel.
        const auto far = topo_.global_peer(rid, port);
        in.in_channel = static_cast<ChannelId>(far.router * ports + far.port);
        in.credit_offset = offset(cfg_.global_latency, far.router);
        break;
      }
      case PortClass::kRing: {
        const RouterId pred = ring_->predecessor(rid);
        in.in_channel =
            static_cast<ChannelId>(pred * ports + topo_.ring_port());
        in.credit_offset =
            offset(ring_->step_crosses_group(pred) ? cfg_.global_latency
                                                   : cfg_.local_latency,
                   pred);
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
    const Channel ch = channel(id);
    OutputPort& out = router.outputs[port];
    out.channel = id;
    out.wheel_offset =
        offset(ch.latency, ch.is_ejection() ? rid : ch.dst_router);
    if (ch.is_ejection()) {
      sh.arena.bind_credits(router, port, 1, kEjectionCredits);
    } else {
      u32 dvcs = 0, dcap = 0;
      input_shape(ch.dst_router, ch.dst_port, dvcs, dcap);
      sh.arena.bind_credits(router, port, dvcs, dcap);
    }
  }

  sh.arena.bind_park(router, ports, park_stride_);

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

u32 Network::base_vcs(PortId port) const {
  switch (topo_.port_class(port)) {
    case PortClass::kNode: return 1;  // ejection output: one lane
    case PortClass::kLocal: return cfg_.vcs_local;
    case PortClass::kGlobal: return cfg_.vcs_global;
    case PortClass::kRing: return 0;  // escape-only port
  }
  return 0;
}

bool Network::is_ring_input(RouterId r, PortId port, VcId vc) const {
  if (ring_ == nullptr || port != ring_in_port_[r]) return false;
  const RingOut in = ring_vcs(port);
  return vc >= in.first_vc && vc < in.first_vc + in.num_vcs;
}

double Network::base_occupancy(const Router& r, PortId port) const {
  const u32 count = base_vcs(port);
  if (count == 0 || !r.outputs[port].wired()) return 1.0;
  return r.outputs[port].occupancy(0, count,
                                   static_cast<u32>(state_cycle()));
}

// ---------------------------------------------------------------------------
// injection
// ---------------------------------------------------------------------------

void Network::offer(NodeId src, NodeId dst) {
  OFAR_DCHECK(src != dst && dst < topo_.nodes());
  stats_.on_generated(cfg_.packet_size);
  OfferQueue& queue = pending_[src];
  if (queue.empty()) {  // just became pending: list it, probe it
    node_ready_[src] = 1;
    if (!active_nodes_.empty() && src < active_nodes_.back())
      active_nodes_sorted_ = false;
    active_nodes_.push_back(src);
  }
  queue.push_back({.dst = dst, .birth = now_});
  ++pending_total_;
}

bool Network::try_inject(NodeId src, NodeId dst) {
  const RouterId rid = topo_.router_of_node(src);
  ensure_router_built(rid);  // serial phase
  Router& r = routers_[rid];
  if (r.throttled) return false;
  InputPort& in = r.inputs[topo_.node_port(topo_.node_slot(src))];
  u32 best_vc;
  if (!in.best_fit_vc(cfg_.packet_size, best_vc, static_cast<u32>(now_)))
    return false;
  stats_.on_generated(cfg_.packet_size);
  place_packet(src, {.dst = dst, .birth = now_});
  return true;
}

void Network::place_packet(NodeId src, const Offer& offer) {
  const RouterId rid = topo_.router_of_node(src);
  ensure_router_built(rid);  // serial phase
  Router& r = routers_[rid];
  const PortId port = topo_.node_port(topo_.node_slot(src));
  InputPort& in = r.inputs[port];
  const u32 now = static_cast<u32>(now_);
  u32 best_vc;
  const bool fits = in.best_fit_vc(cfg_.packet_size, best_vc, now);
  OFAR_DCHECK(fits);  // caller checked space
  (void)fits;

  const PacketId id = pool_.create();
  Packet& pkt = pool_.get(id);
  pkt.src = src;
  pkt.dst = offer.dst;
  pkt.dst_router = topo_.router_of_node(offer.dst);
  pkt.birth = offer.birth;
  pkt.last_progress = now_;
  pkt.flag_group = topo_.group_of(r.id);
  // Injection is always a serial phase, so the sequence number is identical
  // at any sim_threads — the basis of deterministic trace sampling.
  pkt.seq = injected_total_;
  pkt.traced = tracer_ && trace::should_sample(pkt.seq, trace_sample_);

  policy_->on_inject(*this, pkt, r.id);

  const bool was_empty = in.vcs[best_vc].empty();
  in.vcs[best_vc].push_whole_packet(id, cfg_.packet_size, now);
  note_enqueued(r, port, static_cast<VcId>(best_vc), was_empty);
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
    tracer_(ev);  // serial injection phase
  }
}

// ---------------------------------------------------------------------------
// cycle phases
// ---------------------------------------------------------------------------

void Network::deliver_packet(const Delivery& d) {
  ++delivered_total_;
  stats_.on_delivered(cfg_.packet_size, now_ - d.birth, d.birth, d.hops);
  if (tracer_ && d.traced) {
    const Packet& pkt = pool_.get(d.id);
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kDeliver;
    ev.packet = d.id;
    ev.cycle = now_;
    ev.router = pkt.dst_router;
    ev.out_port = topo_.node_port(topo_.node_slot(pkt.dst));  // ejection
    ev.src = pkt.src;
    ev.dst = pkt.dst;
    ev.seq = pkt.seq;
    // Serial phase: commit_shard_deliveries runs deliveries in
    // shard-ascending order.
    tracer_(ev);
  }
  pool_.destroy(d.id);
}

void Network::advance_transfers(ShardState& sh, u32 slot) {
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
  // The current slot was delivered in the phase before: empty this
  // shard's buckets of it. No event pushed below can target it (every
  // latency is >= 1 and wheel_size_ >= 2).
  const std::size_t shard_count = shards_.size();
  const std::size_t current = std::size_t{slot} * shard_count;
  for (std::size_t b = current; b < current + shard_count; ++b) {
    sh.phit_wheel[b].clear();
    sh.credit_wheel[b].clear();
  }
  // Bucket of an event with a cached port offset (latency * K + owner,
  // 1 <= latency < wheel_size_), without a division per event.
  const std::size_t buckets = sh.phit_wheel.size();
  const auto bucket_at = [current, buckets, shard_count](u32 offset) {
    OFAR_DCHECK(offset >= shard_count && offset < buckets);
    const std::size_t b = current + offset;
    return b >= buckets ? b - buckets : b;
  };
  // Ports [0, p) are the node ports: injection inputs, ejection outputs.
  const u32 node_ports = topo_.p();
  const u32 now = static_cast<u32>(now_);
  // Every packet is this long, so the loop never touches the pool.
  const u32 size = cfg_.packet_size;
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
      // The first phit sends the packet's head event downstream and its
      // credit ramp back to the sender of the FIFO it leaves; latencies
      // and event owners are cached at wiring time. An ejection sends its
      // one event at the last phit instead, so deliveries stay in the
      // order their tails reach the nodes.
      if (out.phits_left == size) {
        if (in.in_channel != kInvalidChannel)
          sh.credit_wheel[bucket_at(in.credit_offset)].push_back(
              {in.in_channel, out.src_vc});
        if (port >= node_ports)
          sh.phit_wheel[bucket_at(out.wheel_offset)].push_back(
              {out.channel, out.active, out.active_vc});
      }
      if (in.in_channel == kInvalidChannel && out.src_port < node_ports) {
        // A phit left an injection FIFO: its node may fit a packet again.
        node_ready_[topo_.node_at(id, out.src_port)] = 1;
      }
      ++channel_phits_[out.channel];  // flat counter; shard owns src router
      --out.phits_left;
      VcFifo& fifo = in.vcs[out.src_vc];
      OFAR_DCHECK(!fifo.empty() && fifo.head() == out.active);
      // Cut-through never underruns: the phit just sent had arrived.
      OFAR_DCHECK(fifo.arrived(fifo.entry(0), now) >= size - out.phits_left);
      if (out.phits_left != 0) continue;
      if (port < node_ports)
        sh.phit_wheel[bucket_at(out.wheel_offset)].push_back(
            {out.channel, out.active, out.active_vc});
      fifo.pop();
      --r.buffered_packets;
      if (fifo.empty()) {
        r.input_mask[out.src_port] &= static_cast<u8>(~(1u << out.src_vc));
      } else {
        // The queued entry behind the departing packet becomes the head.
        ++r.routable_heads;
      }
      out.active = kInvalidPacket;
      in.head_busy[out.src_vc] = 0;
      r.active_out_mask &= ~(1ull << port);
      // The output is idle again: a rise for the heads parked on it when
      // some VC (base or escape) can take a packet.
      VcId vc;
      if ((r.wake_any >> port & 1) != 0 &&
          out.best_vc(0, out.credits.size(), size, now, vc))
        r.risen |= u64{1} << port;
    }
  }
  sh.active_routers.resize(w);
}

void Network::park(Router& r, PortId port, VcId vc, u64 wake) {
  OFAR_DCHECK((r.parked[port] >> vc & 1) == 0);
  r.parked[port] |= static_cast<u8>(1u << vc);
  r.wake[port * park_stride_ + vc] = wake;
  r.wake_any |= wake;
  ++r.parked_heads;
}

void Network::note_ramp_rises(Router& r, u32 now) {
  const u32 packet = cfg_.packet_size;
  for (u64 m = r.wake_any & ~r.active_out_mask & ~r.risen; m != 0;
       m &= m - 1) {
    const u32 port = static_cast<u32>(std::countr_zero(m));
    const OutputPort& out = r.outputs[port];
    for (u32 v = 0; v < out.credits.size(); ++v) {
      // A credit of v's ramp lands at `now` while its last one lands at
      // most packet - 1 cycles later.
      const u32 ahead = out.ramp_end[v] - now;
      if (ahead >= packet) continue;
      const u32 credits = out.credits[v] - ahead;
      if (credits == packet || credits == 2 * packet) {
        r.risen |= u64{1} << port;
        break;
      }
    }
  }
}

void Network::unpark_risen(Router& r) {
  const u64 risen = r.risen;
  r.risen = 0;
  u64 waiting = 0;
  u32 left = r.parked_heads;
  const u64* wake = r.wake;
  for (PortId port = 0; left != 0; ++port, wake += park_stride_) {
    OFAR_DCHECK(port < r.num_ports());
    for (u32 m = r.parked[port]; m != 0; m &= m - 1, --left) {
      const u32 vc = static_cast<u32>(std::countr_zero(m));
      if ((wake[vc] & risen) == 0) {
        waiting |= wake[vc];
        continue;
      }
      r.parked[port] &= static_cast<u8>(~(1u << vc));
      --r.parked_heads;
    }
  }
  r.wake_any = waiting;
}

void Network::unpark_all(Router& r) {
  if (r.parked_heads == 0) return;  // then wake_any and risen are 0 too
  std::fill_n(r.parked, r.num_ports(), u8{0});
  r.parked_heads = 0;
  r.wake_any = 0;
  r.risen = 0;
}

void Network::visit_parked(ShardState& sh, Router& r, u32 lane) {
  if constexpr (kDchecksOn) sh.view.bind(r, static_cast<u32>(now_));
  for (PortId port = 0; port < r.num_ports(); ++port) {
    for (u32 m = r.parked[port]; m != 0; m &= m - 1) {
      const VcId vc = static_cast<VcId>(std::countr_zero(m));
      if (telem_) telem_->note_credit_stall(r.id, port, vc);
      if constexpr (kDchecksOn) {
        // The call is free of effects when it fails: no policy draws RNG
        // on a failing call of a head it lets park.
        OFAR_DCHECK(r.inputs[port].has_head(vc));
        Packet& pkt = pool_.get(r.inputs[port].vcs[vc].head());
        RouteContext rctx{*this, sh.view, r.id, port, vc, pkt, lane};
        OFAR_CHECK_MSG(!policy_->route(rctx).valid && rctx.wake != 0,
                       "a parked head could route: a rise went unnoticed");
      }
    }
  }
}

void Network::do_allocation(ShardState& sh, u32 lane) {
  // Provenance is only materialised for traced heads (sparse side buffer),
  // so one record is reused across the scan and reset only when a traced
  // head actually wants it — the untraced hot path never touches it.
  RouteProvenance prov;
  const u32 now = static_cast<u32>(now_);
  for (const RouterId id : sh.active_routers) {
    Router& r = routers_[id];
    // No routable head means the port scan below would find nothing to
    // request: every buffered packet is either mid-transfer or queued
    // behind one. Skipping is observationally identical (an empty request
    // set never reaches the allocator, so no arbiter state changes) and
    // saves the scan for the packet_size cycles each grant streams.
    if (r.routable_heads == 0) continue;
    // Parked heads (DESIGN.md §6) fail route() until an output they wait
    // on rises: wake those whose output rose, and leave the rest out of
    // the scan. A router whose every head is parked is skipped before its
    // view is bound, exactly as one without heads. Transfer ends note
    // their rises as they happen; credit ramps are read here, in the
    // cycle each of their credits lands.
    if (r.wake_any != 0) note_ramp_rises(r, now);
    if (r.risen != 0) unpark_risen(r);
    if (r.parked_heads != 0) {
      if (telem_ || kDchecksOn) visit_parked(sh, r, lane);
      if (r.parked_heads == r.routable_heads) continue;
    }
    sh.reqs.clear();
    sh.provs.clear();
    // Rebind the shard's credit view to this router: one O(1) epoch bump,
    // after which every route() call of this scan reads its base-VC
    // queries from at most one per-port refresh. Exact by construction —
    // no credit or output-busy state changes until commit_grant below.
    sh.view.bind(r, now);
    // Pass 1: gather the unparked routable heads (InputPort::has_head) in
    // ascending (port, VC) order from the flat FIFO arena and prefetch each
    // head packet's cache line. Head packets are scattered across the pool,
    // so letting the loads overlap here (instead of stalling pass 2 one
    // miss at a time) is worth a second, purely local walk.
    sh.heads.clear();
    for (PortId port = 0; port < r.inputs.size(); ++port) {
      const InputPort& in = r.inputs[port];
      for (u8 mask = static_cast<u8>(r.input_mask[port] & ~r.parked[port]);
           mask != 0; mask &= static_cast<u8>(mask - 1)) {
        const VcId vc = static_cast<VcId>(__builtin_ctz(mask));
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
        if (rctx.wake != 0) park(r, h.port, h.vc, rctx.wake);
        continue;
      }
      OFAR_DCHECK(!r.outputs[choice.out_port].busy());
      OFAR_DCHECK(r.outputs[choice.out_port].credit(choice.out_vc, now) >=
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
  const u32 size = cfg_.packet_size;
  OutputPort& out = r.outputs[rq.choice.out_port];
  Packet& pkt = pool_.get(rq.packet);
  OFAR_DCHECK(!out.busy());
  OFAR_DCHECK(out.credit(rq.choice.out_vc, static_cast<u32>(now_)) >= size);

  // Queueing delay of this hop, captured before last_progress is updated.
  const Cycle queue_wait = now_ - pkt.last_progress;

  // An ejection output is a sink: nothing returns its credits, so none
  // are taken and it stays at its cap.
  if (rq.choice.out_port >= topo_.p()) out.credits[rq.choice.out_vc] -= size;
  out.active = rq.packet;
  out.active_vc = rq.choice.out_vc;
  out.src_port = rq.in_port;
  out.src_vc = rq.in_vc;
  out.phits_left = size;
  OFAR_DCHECK(r.routable_heads > 0);
  note_granted(r, rq.choice.out_port, rq.in_port, rq.in_vc);
  r.inputs[rq.in_port].vcs[rq.in_vc].start_send(static_cast<u32>(now_) +
                                                size);

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
    ev.prov.condition = grant_condition(rq.choice, pkt);
    sh.traces.push_back(ev);  // flushed serially, in shard order
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
  const u32 now = static_cast<u32>(now_);
  for (const ShardState& sh : shards_) {
    for (const RouterId id : sh.active_routers) {
      Router& r = routers_[id];
      // The exact phits the router's non-empty VCs store this cycle.
      u32 stored = 0;
      for (PortId port = 0; port < r.inputs.size(); ++port)
        for (u32 m = r.input_mask[port]; m != 0; m &= m - 1)
          stored += r.inputs[port].stored_phits(
              static_cast<u32>(std::countr_zero(m)), now);
      const double occ = static_cast<double>(stored) /
                         static_cast<double>(r.buffer_capacity_phits);
      if (r.throttled) {
        if (occ < cfg_.throttle_off) {
          r.throttled = false;
          for (u32 slot = 0; slot < topo_.p(); ++slot)  // may fit again
            node_ready_[topo_.node_at(id, slot)] = 1;
        }
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
  // Only ready nodes are probed. Any other listed node failed its last
  // probe and nothing that could make it pass has happened since: its
  // injection FIFOs gain space only when a phit leaves them, its router's
  // latch releases only in update_throttle, and both mark it ready.
  // Skipping it places exactly the packets a full scan would, in the same
  // node order.
  std::size_t w = 0;
  for (const NodeId n : active_nodes_) {
    if (node_ready_[n] != 0) {
      node_ready_[n] = 0;
      auto& queue = pending_[n];
      while (!queue.empty()) {
        // place_packet requires space; probe with the same best-fit rule
        // the placement uses (InputPort::best_fit_vc), so probe and
        // placement cannot diverge.
        const RouterId rid = topo_.router_of_node(n);
        ensure_router_built(rid);  // serial phase
        const Router& r = routers_[rid];
        if (r.throttled) break;
        const InputPort& in = r.inputs[topo_.node_port(topo_.node_slot(n))];
        u32 vc;
        if (!in.best_fit_vc(cfg_.packet_size, vc, static_cast<u32>(now_)))
          break;
        place_packet(n, queue.front());
        queue.pop_front();
        --pending_total_;
      }
      if (queue.empty()) continue;
    }
    active_nodes_[w++] = n;
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
}

void Network::deliver_events_shard(ShardState& sh, u32 shard, u32 slot) {
  // Shard s reads bucket (slot, s) of every shard's wheels, in shard order:
  // exactly the events it owns, in the order a scan of whole slots would
  // have met them. A hop event belongs to the destination router's shard
  // (it queues the packet in that router's input FIFO), an ejection to the
  // source router's shard (its effect, the delivery, is staged anyway), a
  // ramp to the source router's shard (it returns that router's output
  // credits). Buckets are only read here; each shard empties its own in
  // its next transfer phase.
  // The events of one slot go to distinct (channel, VC) targets, so only
  // the order of the ejections matters: all of them were generated one
  // cycle ago by the source router's shard, so they stage in generation
  // order.
  const std::size_t bucket = std::size_t{slot} * shards_.size() + shard;
  const u32 packet = cfg_.packet_size;
  const u32 now = static_cast<u32>(now_);
  for (const ShardState& from : shards_) {
    for (const PhitEvent& e : from.phit_wheel[bucket]) {
      const Channel ch = channel(e.ch);
      if (ch.is_ejection()) {
        OFAR_DCHECK(shard_of_router_[ch.src_router] == shard);
        // The packet line was last written by this shard's grant.
        const Packet& pkt = pool_.get(e.pkt);
        OFAR_DCHECK(ch.dst_node == pkt.dst);
        sh.delivered.push_back({e.pkt, pkt.birth, pkt.total_hops, pkt.traced});
        continue;
      }
      OFAR_DCHECK(shard_of_router_[ch.dst_router] == shard);
      // Lazy build is parallel-legal here: the destination router belongs
      // to this shard, and everything build_router writes (router shell,
      // arena chunks, built_ flag, shard built counter) is shard-local.
      ensure_router_built(ch.dst_router);
      Router& dst = routers_[ch.dst_router];
      InputPort& in = dst.inputs[ch.dst_port];
      VcFifo& fifo = in.vcs[e.vc];
      const bool was_empty = fifo.empty();
      // The head phit is here; the rest of the packet follows one phit
      // per cycle, and the entry derives them from this stamp.
      fifo.push(e.pkt, packet, now);
      OFAR_DCHECK(in.stored_phits(e.vc, now) <= fifo.capacity());
      note_enqueued(dst, ch.dst_port, e.vc, was_empty);
    }
  }
  for (const ShardState& from : shards_) {
    for (const CreditEvent& e : from.credit_wheel[bucket]) {
      // Only the sending router and port are needed.
      const auto [src_r, port] = channel_source(e.ch);
      OFAR_DCHECK(shard_of_router_[src_r] == shard);
      OFAR_DCHECK(built_[src_r] != 0);  // credits only return to senders
      OutputPort& out = routers_[src_r].outputs[port];
      OFAR_DCHECK(e.vc < out.credits.size());
      // The downstream FIFO sends one packet at a time, so the VC's
      // previous ramp has landed. The first credit lands now, the last
      // packet - 1 cycles later; credits[] holds the landed total, and the
      // scan of a router with parked heads reads the rises (see
      // note_ramp_rises).
      OFAR_DCHECK(out.pending(e.vc, now - 1) == 0);
      out.credits[e.vc] += packet;
      out.ramp_end[e.vc] = now + packet - 1;
      OFAR_DCHECK(out.credits[e.vc] <= out.credit_cap[e.vc]);
    }
  }
}

void Network::commit_shard_deliveries() {
  for (ShardState& sh : shards_) {
    for (const Delivery& d : sh.delivered) deliver_packet(d);
    sh.delivered.clear();
  }
}

bool Network::shard_work_due(u32 slot) const {
  const std::size_t first = std::size_t{slot} * shards_.size();
  for (const ShardState& sh : shards_) {
    if (!sh.active_routers.empty()) return true;
    for (std::size_t b = first; b < first + shards_.size(); ++b)
      if (!sh.phit_wheel[b].empty() || !sh.credit_wheel[b].empty())
        return true;
  }
  return false;
}

void Network::commit_shard_staging() {
  for (ShardState& sh : shards_) {
    if (tracer_) {
      // Shard-ascending flush of per-shard staging: the one emission
      // path for grant-phase trace events.
      for (const TraceEvent& ev : sh.traces) tracer_(ev);
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
  // Every run executes this one body. Telemetry only observes it: the
  // phase profiler reads the clock at the serial phase boundaries, and
  // the sampler runs after the cycle.
  PhaseProfiler* const prof = telem_ ? &telem_->profiler() : nullptr;
  if (prof) prof->start_cycle(now_);
  in_step_ = true;
  const u32 slot = static_cast<u32>(now_ % wheel_size_);
  // No event due and no active router: the shard phases and their commits
  // would do nothing, so a drained cycle dispatches no pool phase.
  const bool shard_work = shard_work_due(slot);
  if (shard_work)
    shard_pool_->parallel_phase(num_shards(), [this, slot](u32 s) {
      deliver_events_shard(shards_[s], s, slot);
    });
  if (prof) prof->phase_done(SimPhase::kEventDelivery);
  if (shard_work) commit_shard_deliveries();
  if (prof) prof->phase_done(SimPhase::kDeliveryCommit);
  policy_->tick(*this);
  if (prof) prof->phase_done(SimPhase::kPolicyTick);
  // Transfers and allocation fuse into one parallel phase: during both, a
  // shard reads and writes only its own routers (allocation consumes credit
  // state only the same shard's transfers touch), so no barrier is needed
  // between them within a shard program.
  if (shard_work) {
    shard_pool_->parallel_phase(num_shards(), [this, slot](u32 s) {
      advance_transfers(shards_[s], slot);  // also prunes + sorts the list
      do_allocation(shards_[s], s);
    });
  }
  if (prof) prof->phase_done(SimPhase::kTransfersAllocation);
  if (shard_work) commit_shard_staging();
  if (prof) prof->phase_done(SimPhase::kStagingCommit);
  do_injection();
  if (prof) prof->phase_done(SimPhase::kInjection);
  const bool watchdog = now_ % kWatchdogPeriod == 0 && now_ != 0;
  if (watchdog) {
    run_watchdog();
    if (prof) prof->phase_done(SimPhase::kWatchdog);
  }
  if (prof) prof->end_cycle(watchdog);
  in_step_ = false;
  ++now_;
  if (now_ >= next_audit_) [[unlikely]] run_audit();
  if (telem_) telem_->maybe_sample(*this, now_);
}

void Network::enable_telemetry(const TelemetryConfig& tcfg) {
  telem_ = std::make_unique<Telemetry>(*this, tcfg);
}

void Network::enable_tracing(const trace::TracerConfig& tcfg) {
  set_trace_sampling(tcfg.sample);
  trace_ = std::make_unique<trace::PacketTracer>(*this, tcfg);
  tracer_ = [sink = trace_.get()](const TraceEvent& ev) { sink->on_event(ev); };
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
    // The post-mortem: abort() runs no destructor, so write the traced
    // journeys first, the packets still in flight included.
    if (trace_) trace_->finish();
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
  for (const ShardState& sh : shards_) {
    for (const auto& slot : sh.phit_wheel)
      if (!slot.empty()) return false;
    for (const auto& slot : sh.credit_wheel)
      if (!slot.empty()) return false;
  }
  // Nor may a credit ramp still be landing.
  const u32 at = static_cast<u32>(state_cycle());
  for (const Router& r : routers_)
    for (const OutputPort& out : r.outputs)
      for (u32 v = 0; v < out.credits.size(); ++v)
        if (out.pending(v, at) != 0) return false;
  // With no packet live, a clean audit leaves every FIFO empty, every
  // output idle and every credit counter at capacity.
  return verify::InvariantAuditor(*this).run_all().ok();
}

bool Network::check_worklists() const {
  verify::InvariantAuditor auditor(*this);
  verify::AuditReport report;
  auditor.check_worklists(report);
  return report.ok();
}

}  // namespace ofar
