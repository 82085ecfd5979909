// Single-cycle network engine (paper §V).
//
// Owns the topology, routers, channels, packet pool, routing policy, escape
// ring, traffic source and statistics, and advances them one synchronous
// cycle at a time:
//
//   1. deliver hop and credit-ramp events whose wire latency elapsed,
//   2. policy tick (PB's intra-group congestion broadcast),
//   3. advance active packet transfers (1 phit/cycle through the crossbar),
//   4. routing decisions for every head packet + separable allocation,
//   5. traffic generation and injection-queue filling,
//   6. periodic deadlock watchdog.
//
// Per-cycle work scales with *activity*, not topology size: phases 3-5 walk
// incrementally-maintained worklists (routers holding packets or streaming
// transfers; nodes with backlogged offers) instead of scanning every
// router/node. The worklists are kept in ascending-id order, so the phase
// loops visit exactly the routers a full ascending scan would have done
// non-trivial work on — results are bit-identical to the full scan (see
// DESIGN.md "Cycle kernel & performance" for the invariants).
//
// Links are packet-granular: a hop is one event. Timing conventions: a grant
// at cycle t streams phits at t+1..t+size; a phit sent at cycle t arrives
// at t + latency; the credit for a phit leaving a FIFO at cycle t is usable
// upstream at t + latency. So a packet's phits arrive on consecutive
// cycles, and its credits land on consecutive cycles: the transfer's first
// phit sends one head event downstream (an ejection, one event at its last
// phit) and one credit ramp upstream, and a FIFO entry and a credit counter
// derive every later phit and credit from their cycle stamps.
//
// Between steps the state is that of cycle now() - 1; inside step(), once
// the transfers ran, that of now() (state_cycle()).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/config.hpp"
#include "common/divisor.hpp"
#include "common/parallel.hpp"
#include "common/phase.hpp"
#include "common/span.hpp"
#include "common/types.hpp"
#include "routing/routing.hpp"
#include "sim/allocator.hpp"
#include "sim/channel.hpp"
#include "sim/flat_state.hpp"
#include "sim/packet_pool.hpp"
#include "sim/router.hpp"
#include "stats/metrics.hpp"
#include "stats/stats.hpp"
#include "topology/dragonfly.hpp"
#include "topology/hamiltonian.hpp"
#include "traffic/generator.hpp"
#include "verify/invariant_auditor.hpp"

namespace ofar {

namespace trace {
class PacketTracer;
struct TracerConfig;
}  // namespace trace

/// Optional per-packet event trace (tests, debugging, path analysis; the
/// full tracing subsystem lives in src/trace — DESIGN.md §11).
///
/// Field validity per kind:
///
///   field       | kInject | kGrant                     | kDeliver
///   ------------+---------+----------------------------+--------------
///   packet,cycle,router,src,dst,seq: valid for every kind
///   out_port    |    —    | chosen                     | ejection port
///   out_vc      |    —    | chosen                     | 0
///   misroute    |  kNone  | chosen                     | kNone
///   ring_move   |  false  | set                        | false
///   in_port     |    —    | input port of the head     | —
///   in_vc       |    —    | input VC of the head       | —
///   queue_wait  |    0    | cycles since last progress | 0
///   prov        | default | decision provenance        | default
///
/// ("—" = the field keeps its default). A grant that enters or leaves the
/// escape ring says so in prov.condition (kRingEnter/kRingExit, derived by
/// grant_condition); ring_move is false on the grant that leaves it.
struct TraceEvent {
  enum class Kind : u8 {
    kInject,   ///< packet placed into an injection FIFO
    kGrant,    ///< allocator grant: packet starts crossing to out_port
    kDeliver,  ///< tail phit reached the destination node
  };
  Kind kind;
  PacketId packet;
  Cycle cycle;
  RouterId router;
  PortId out_port = kInvalidPort;
  VcId out_vc = 0;
  MisrouteKind misroute = MisrouteKind::kNone;
  bool ring_move = false;
  NodeId src = 0;
  NodeId dst = 0;
  u64 seq = 0;       ///< packet injection sequence number (Packet::seq)
  PortId in_port = kInvalidPort;
  VcId in_vc = 0;
  u32 queue_wait = 0;
  RouteProvenance prov;
};

const char* to_string(TraceEvent::Kind k) noexcept;

class Network {
 public:
  explicit Network(const SimConfig& cfg);
  ~Network();  // defined in network.cpp (unique_ptr to incomplete PacketTracer)
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // ---- simulation control ----
  void step();
  void run(u64 cycles);
  Cycle now() const noexcept { return now_; }
  /// The cycle the network state reflects, at which FIFO fills and credit
  /// ramps are evaluated: now() inside step(), now() - 1 between steps (0
  /// before the first).
  Cycle state_cycle() const noexcept {
    return in_step_ || now_ == 0 ? now_ : now_ - 1;
  }

  // ---- sharded cycle kernel (DESIGN.md §10) ----
  /// Number of contiguous router shards the kernel was partitioned into
  /// (cfg.sim_shards clamped to the router count). Every K runs the same
  /// staged-commit kernel (K = 1 is a one-shard run of it), whose per-seed
  /// results are identical at ANY worker-thread count.
  u32 num_shards() const noexcept;
  /// Sets the number of worker threads driving the sharded kernel's
  /// parallel phases (clamped to [1, num_shards()]). Purely an execution
  /// knob: results are bit-identical for every value, so it is NOT part of
  /// the experiment content key. Callable between steps at any time.
  void set_sim_threads(unsigned threads);
  unsigned sim_threads() const noexcept { return shard_pool_->threads(); }

  /// Installs the traffic source (owned).
  void set_traffic(std::unique_ptr<TrafficSource> source);
  TrafficSource* traffic() { return traffic_.get(); }

  /// True when no packet is pending, buffered or in flight anywhere.
  bool drained() const noexcept {
    return pool_.live_count() == 0 && pending_total_ == 0;
  }

  // ---- injection API (used by traffic sources) ----
  /// Queues an offer in the node's unbounded source queue (Bernoulli).
  void offer(NodeId src, NodeId dst);
  /// Injects directly if the injection FIFO has room; false otherwise.
  bool try_inject(NodeId src, NodeId dst);

  // ---- structure accessors ----
  const SimConfig& config() const noexcept { return cfg_; }
  const Dragonfly& topo() const noexcept { return topo_; }
  const HamiltonianRing* ring() const noexcept { return ring_.get(); }
  /// Mutating access builds the router on first touch (serial contexts:
  /// drivers and tests crafting router state). It also unparks the
  /// router's heads (DESIGN.md §6): the caller may change what they wait
  /// on. The const overload returns the shell as-is — callers iterating
  /// structure must check router_built().
  Router& router(RouterId r) {
    ensure_router_built(r);
    unpark_all(routers_[r]);
    return routers_[r];
  }
  const Router& router(RouterId r) const { return routers_[r]; }

  // ---- channel id scheme (implicit wiring) ----
  // Channel ids are dense: id = src_router * ports_per_router + src_port.
  // No channel table exists: a descriptor is resolved arithmetically from
  // the topology on every lookup. For untrimmed topologies the ids
  // coincide with the historical sequential ids.
  /// Resolved descriptor of a *wired* channel id (by value: there is no
  /// stored object behind it). Binding the result to a const reference at
  /// call sites is fine (lifetime extension).
  Channel channel(ChannelId c) const;
  /// True when the dense id maps to an existing link. The only holes are
  /// unwired global slots of trimmed (groups < max) topologies.
  bool channel_wired(ChannelId c) const noexcept;
  /// One-past the largest dense channel id: routers * ports_per_router.
  /// Iteration over [0, num_channels()) must skip !channel_wired(c).
  std::size_t num_channels() const noexcept {
    return std::size_t{routers_.size()} * ports_per_router_.value();
  }
  /// Lifetime phits carried by channel `c` (§III link-load analysis).
  u64 channel_phits(ChannelId c) const noexcept { return channel_phits_[c]; }
  PacketPool& packets() noexcept { return pool_; }
  const PacketPool& packets() const noexcept { return pool_; }
  Stats& stats() noexcept { return stats_; }
  const Stats& stats() const noexcept { return stats_; }
  RoutingPolicy& policy() noexcept { return *policy_; }

  // ---- lazy construction (see DESIGN.md §"Scale") ----
  /// True when router r's FIFO/credit/arbiter state has been bound. Unbuilt
  /// routers are empty shells (no packet ever touched them); read-only
  /// consumers (telemetry, auditor, policy ticks) must treat them as
  /// all-empty / all-credits-at-cap rather than indexing their ports.
  bool router_built(RouterId r) const noexcept { return built_[r] != 0; }
  /// Routers built so far (memory accounting, tests).
  u64 built_router_count() const noexcept;
  /// Input-port shape (VC count, per-VC capacity in phits) of (r, port),
  /// computed arithmetically — valid whether or not r is built. This is
  /// also how output credit counters are sized (the downstream shape).
  void input_shape(RouterId r, PortId port, u32& vcs, u32& capacity) const;

  // ---- activity queries (telemetry) ----
  std::size_t active_router_count() const noexcept;
  std::size_t active_node_count() const noexcept {
    return active_nodes_.size();
  }
  /// Offers queued in node source queues, not yet injected.
  u64 pending_offers() const noexcept { return pending_total_; }

  /// Lifetime packet totals. Unlike the Stats counters these are never
  /// reset by measurement windows, so `injected_total() - delivered_total()`
  /// equals the live-packet count at all times (audited invariant).
  u64 injected_total() const noexcept { return injected_total_; }
  u64 delivered_total() const noexcept { return delivered_total_; }

  /// Enables the periodic invariant auditor (verify/invariant_auditor.hpp):
  /// every `interval` cycles the full check suite runs between cycles; any
  /// violation prints an actionable report and aborts. Interval 0 disables.
  /// The auditor is read-only and RNG-free — per-seed results (and golden
  /// digests) are bit-identical with auditing on or off.
  void enable_audit(Cycle interval);

  /// Enables the opt-in telemetry layer (see stats/metrics.hpp). Replaces
  /// any previous instance; the interval clock starts at the current cycle.
  /// Telemetry is read-only instrumentation: enabling it changes no
  /// simulation outcome and consumes no RNG draws.
  void enable_telemetry(const TelemetryConfig& tcfg);
  Telemetry* telemetry() noexcept { return telem_.get(); }
  const Telemetry* telemetry() const noexcept { return telem_.get(); }

  // ---- per-port structure queries (used by routing policies) ----
  /// Base VCs a non-escape packet may use on output port `port`: VCs 0
  /// to base_vcs(port) - 1, the same at every router.
  u32 base_vcs(PortId port) const;
  /// Escape-ring VCs of a ring port: they sit above the port's base VCs,
  /// vcs_local of them on the physical ring and one on the embedded ring.
  struct RingOut {
    PortId port = kInvalidPort;
    u32 first_vc = 0;
    u32 num_vcs = 0;
  };
  /// The ring port router r sends on, and its escape VCs.
  RingOut ring_out(RouterId r) const {
    OFAR_DCHECK(ring_ != nullptr);
    return ring_vcs(cfg_.ring == RingKind::kPhysical
                        ? topo_.ring_port()
                        : ring_->embedded_out_port(r));
  }
  /// The ring port router r receives on, and its escape VCs.
  RingOut ring_in(RouterId r) const {
    OFAR_DCHECK(ring_ != nullptr);
    return ring_vcs(ring_in_port_[r]);
  }
  /// True when (port, vc) of router r's *input* side belongs to the ring.
  bool is_ring_input(RouterId r, PortId port, VcId vc) const;

  /// Occupancy fraction of an output port over its base (non-escape) VCs.
  double base_occupancy(const Router& r, PortId port) const;

  /// Installs a per-packet event tracer (empty function disables). The
  /// callback runs synchronously inside the cycle loop; keep it light.
  /// Only packets selected by the trace sampler emit events; the default
  /// sampling of 1 (every packet, decided at injection) preserves the
  /// historical "trace everything" behaviour. Every grant-phase event is
  /// staged per shard and flushed in shard-ascending order, so the event
  /// stream is bit-identical at any sim_threads.
  void set_tracer(std::function<void(const TraceEvent&)> tracer) {
    tracer_ = std::move(tracer);
  }

  /// Trace 1 in `denom` injected packets (deterministic hash of the
  /// injection sequence number — see trace::should_sample; 0/1 = all).
  /// Applies to packets injected after the call.
  void set_trace_sampling(u32 denom) noexcept { trace_sample_ = denom; }

  /// Enables the full tracing subsystem (src/trace): installs a
  /// PacketTracer as the tracer callback and applies tcfg.sample. Its
  /// journeys are written at destruction, or before an InvariantAuditor
  /// failure aborts the run. Replaces any previous tracer. Tracing is
  /// read-only instrumentation: no simulation outcome or RNG draw changes.
  void enable_tracing(const trace::TracerConfig& tcfg);
  trace::PacketTracer* packet_tracer() noexcept { return trace_.get(); }

  /// Deep flow-control conservation check: true iff the network is fully
  /// drained, no event is in flight, and the invariant auditor passes —
  /// which, with no packet live, means every FIFO is empty, every output
  /// idle and every credit counter restored to capacity. Used by tests
  /// after drain.
  bool check_quiescent() const;

  /// Mid-run credit-conservation audit. For every (channel, VC):
  ///   upstream credits + credits still to land + downstream stored phits
  ///   + phits on the wire + unsent phits of an active transfer
  ///   - the unsent phits of the downstream head, whose ramp is on its way
  /// must equal the downstream buffer capacity. Thin wrapper over
  /// verify::InvariantAuditor::check_credit_conservation. O(network).
  bool check_flow_conservation() const;

  /// Audit of the activity-worklist invariants (callable between steps):
  /// membership flags match the lists exactly, every router with activity
  /// is on the router worklist (the list may lag with idle routers until
  /// the next refresh), and the pending-node list holds exactly the nodes
  /// with a non-empty source queue. Thin wrapper over
  /// verify::InvariantAuditor::check_worklists. O(network).
  bool check_worklists() const;

 private:
  friend class verify::InvariantAuditor;
  friend class CheckpointIO;  // core/checkpoint.cpp: full-state save/load
  friend struct WheelFaults;  // tests/test_auditor.cpp: wheel mutants

  // Wheel events and offers are checkpointed as raw bytes, so each spells
  // out its padding as zeroed members.
  /// A packet on channel `ch`: its head phit arriving at a router input,
  /// or, on an ejection channel, its last phit reaching the node.
  struct PhitEvent {
    ChannelId ch;
    PacketId pkt;
    VcId vc;
    u8 zero_pad[3] = {};
  };
  /// The first credit of a packet's ramp back to the sender of `ch`; one
  /// more lands in each of the next packet_size - 1 cycles.
  struct CreditEvent {
    ChannelId ch;
    VcId vc;
    u8 zero_pad[3] = {};
  };
  /// An ejected tail, staged by value: the owning shard copies what the
  /// delivery needs while the packet line is still in its cache, so the
  /// serial commit reads the pool only for traced packets and to free ids.
  struct Delivery {
    PacketId id;
    Cycle birth;
    u8 hops;
    bool traced;
  };
  struct Offer {
    NodeId dst;
    u32 zero_pad = 0;
    Cycle birth;
  };

  /// Order-preserving FIFO of a node's pending offers, backed by one plain
  /// vector. An idle queue is 24 bytes with no heap block — at h=16 the
  /// per-node source queues would otherwise dominate idle memory (libstdc++
  /// deques eagerly allocate a ~512-byte chunk each, ~160 MB for 262K
  /// nodes). Capacity tracks the node's own backlog high-water mark, which
  /// is O(in-flight) under the injection throttle.
  class OfferQueue {
   public:
    bool empty() const noexcept { return head_ == buf_.size(); }
    std::size_t size() const noexcept { return buf_.size() - head_; }
    const Offer& front() const {
      OFAR_DCHECK(!empty());
      return buf_[head_];
    }
    void push_back(const Offer& o) { buf_.push_back(o); }
    void pop_front() {
      OFAR_DCHECK(!empty());
      ++head_;
      if (head_ == buf_.size()) {
        buf_.clear();
        head_ = 0;
      } else if (head_ >= 1024 && head_ * 2 >= buf_.size()) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    }
    /// Live entries in FIFO order (checkpointing).
    Span<const Offer> items() const noexcept {
      return Span<const Offer>(buf_.data() + head_, buf_.size() - head_);
    }

   private:
    std::vector<Offer> buf_;
    std::size_t head_ = 0;  // index of front(); entries before it are dead
  };

  /// Per-shard kernel state (DESIGN.md §10). Routers are partitioned into
  /// contiguous id ranges; nodes follow their router (router_of_node is
  /// n / p), so a shard owns [router_begin * p, router_end * p) nodes too.
  /// During a parallel phase a shard touches only its own routers plus this
  /// struct. Hop and ramp events go into the shard's own event wheels,
  /// bucketed by the shard that will apply them; every other cross-shard
  /// effect (stats, traces, deliveries) is staged here and committed
  /// serially in shard-ascending order, which equals router-ascending
  /// generation order. Never commit by thread-arrival order.
  struct ShardState {
    RouterId router_begin = 0;
    RouterId router_end = 0;

    // Activity worklist of this shard's routers (see the invariants on the
    // worklist comment below; they hold per shard).
    std::vector<RouterId> active_routers;
    bool sorted = true;

    // Flat SoA arena backing the FIFO/credit spans of this shard's routers
    // (sim/flat_state.hpp), and the memoized credit view serving route()'s
    // base-VC queries — rebound per router by the allocation scan.
    ShardArena arena;
    CreditView view;

    // Allocation scratch: the separable allocator keeps per-port arbiters
    // reusable state, so each shard owns one (plus a request buffer).
    std::unique_ptr<SeparableAllocator> alloc;
    std::vector<AllocRequest> reqs;
    /// Head-gather scratch for the allocation scan: pass 1 walks the flat
    /// FIFO arena collecting routable heads (and prefetching their packet
    /// lines), pass 2 routes them — the scattered pool loads overlap
    /// instead of stalling the scan one miss at a time.
    struct HeadRef {
      PortId port;
      VcId vc;
      PacketId pid;
    };
    std::vector<HeadRef> heads;

    // Event wheels of owner buckets: bucket slot * K + owner holds the
    // events this shard generated for cycle % wheel size == slot that shard
    // `owner` applies. Only this shard writes them: its transfer phase
    // first empties the current slot's buckets (delivered in the phase
    // before), then pushes every hop and ramp event it generates (every
    // latency is >= 1, so never into the current slot). Shard s's delivery
    // reads bucket (slot, s) of every shard's wheels.
    std::vector<std::vector<PhitEvent>> phit_wheel;
    std::vector<std::vector<CreditEvent>> credit_wheel;

    // Staged side effects, committed serially in shard order.
    std::vector<Delivery> delivered;  ///< ejected tails, generation order
    std::vector<TraceEvent> traces;
    /// Routing-decision provenance for traced heads, keyed by the index of
    /// the matching entry in `reqs` (sparse: only traced packets record).
    /// Cleared together with `reqs` per router.
    std::vector<std::pair<u32, RouteProvenance>> provs;
    u64 ring_first_entries = 0;
    u64 ring_reentries = 0;
    u64 ring_exits = 0;
    u64 local_misroutes = 0;
    u64 global_misroutes = 0;
    /// Routers of this shard built so far (shard-local so the lazy build
    /// can run inside a parallel delivery phase without a shared counter).
    u64 built_count = 0;
  };

  void build_ring();
  /// The sending end of dense channel id `c`: router c / ports and port
  /// c % ports, by multiply-shift.
  struct ChannelSource {
    RouterId router;
    PortId port;
  };
  ChannelSource channel_source(ChannelId c) const noexcept {
    const RouterId r = ports_per_router_.div(c);
    return {r, static_cast<PortId>(c - r * ports_per_router_.value())};
  }
  RingOut ring_vcs(PortId port) const {
    return {port, base_vcs(port),
            cfg_.ring == RingKind::kPhysical ? cfg_.vcs_local : 1u};
  }

  /// Binds router r's FIFO/credit/arbiter state onto its shard arena and
  /// wires its ports (channel ids, cached latencies, credit caps sized from
  /// the downstream input_shape). Parallel-legal from the owning shard's
  /// delivery phase: all written state is shard-local.
  OFAR_PARALLEL_PHASE void build_router(RouterId r);
  OFAR_PARALLEL_PHASE void ensure_router_built(RouterId r) {
    if (built_[r] == 0) build_router(r);
  }

  // ---- parked heads (DESIGN.md §6), all of them shard-local ----
  /// Parks the head of (port, vc) until an output of `wake` rises.
  OFAR_PARALLEL_PHASE void park(Router& r, PortId port, VcId vc, u64 wake);
  /// Marks in r.risen the awaited idle outputs where a credit ramp brings
  /// a VC to exactly `packet_size` or `2 * packet_size` at cycle `now`.
  OFAR_PARALLEL_PHASE void note_ramp_rises(Router& r, u32 now);
  /// Unparks every head waiting on an output in r.risen.
  OFAR_PARALLEL_PHASE void unpark_risen(Router& r);
  /// Unparks every head of r.
  OFAR_PARALLEL_PHASE void unpark_all(Router& r);
  /// Walks the parked heads of r for the scan: with telemetry each counts
  /// one credit stall, as its failing call would; in checked builds
  /// route() runs on each through sh.view, rebound to r, and must fail
  /// and ask to park again.
  OFAR_PARALLEL_PHASE void visit_parked(ShardState& sh, Router& r, u32 lane);

  OFAR_SERIAL_ONLY void update_throttle();
  /// Transfer/allocation phases, per shard: hop and ramp events go into
  /// the owner buckets of the shard's own wheels, stats counts and trace
  /// events into its staging for the serial commit. `slot` is the current
  /// wheel slot (now % wheel size).
  OFAR_PARALLEL_PHASE void advance_transfers(ShardState& sh, u32 slot);
  OFAR_PARALLEL_PHASE void do_allocation(ShardState& sh, u32 lane);
  OFAR_PARALLEL_PHASE void commit_grant(ShardState& sh, Router& r,
                                        const AllocRequest& rq,
                                        const RouteProvenance* prov);
  OFAR_SERIAL_ONLY void do_injection();
  OFAR_SERIAL_ONLY void run_watchdog();
  /// Periodic auditor driver: runs the full check suite and aborts with the
  /// report on any violation. Reschedules itself audit_interval_ ahead.
  OFAR_SERIAL_ONLY void run_audit();

  /// One shard's slice of event delivery: reads its own bucket of the
  /// current slot of every shard's wheels, in shard order, and applies the
  /// events (hop: the destination router is this shard's; ejection and
  /// ramp: the source router is). Read-shared / write-own, so shards need
  /// no locks; each shard empties its own buckets in advance_transfers().
  OFAR_PARALLEL_PHASE void deliver_events_shard(ShardState& sh, u32 shard,
                                                u32 slot);
  /// Serial: performs the staged packet deliveries (stats doubles, tracer,
  /// pool destroy) in shard order.
  OFAR_SERIAL_ONLY void commit_shard_deliveries();
  /// True unless every shard's worklist and every bucket of wheel slot
  /// `slot` are empty. A cycle without shard work skips the shard phases
  /// and their commits, which would change nothing.
  bool shard_work_due(u32 slot) const;
  /// Serial: flushes staged traces and stat counters in shard-ascending
  /// order.
  OFAR_SERIAL_ONLY void commit_shard_staging();

  // ---- activity worklists ----
  /// Bookkeeping of a packet just queued in FIFO (port, vc) of r, empty
  /// before it when `was_empty`; injection, delivery and restore call it.
  /// It lists r (idempotent); the prune fused into advance_transfers()
  /// drops r once it holds no packet and streams nothing. Parallel-legal:
  /// a shard only queues into routers it owns, and the flag and worklist
  /// it writes live in that shard's slice.
  OFAR_PARALLEL_PHASE void note_enqueued(Router& r, PortId port, VcId vc,
                                         bool was_empty) {
    if (was_empty) ++r.routable_heads;
    ++r.buffered_packets;
    r.input_mask[port] |= static_cast<u8>(1u << vc);
    if (router_in_worklist_[r.id] != 0) return;
    router_in_worklist_[r.id] = 1;
    ShardState& sh = shards_[shard_of_router_[r.id]];
    if (!sh.active_routers.empty() && r.id < sh.active_routers.back())
      sh.sorted = false;
    sh.active_routers.push_back(r.id);
  }
  /// Bookkeeping of a grant of the head of (in_port, in_vc) onto output
  /// out_port. commit_grant and restore call it.
  OFAR_PARALLEL_PHASE void note_granted(Router& r, PortId out_port,
                                        PortId in_port, VcId in_vc) {
    r.active_out_mask |= u64{1} << out_port;
    r.inputs[in_port].head_busy[in_vc] = 1;
    --r.routable_heads;
  }
  /// Creates the packet object for an accepted injection.
  OFAR_SERIAL_ONLY void place_packet(NodeId src, const Offer& offer);
  /// Final delivery at the destination node.
  OFAR_SERIAL_ONLY void deliver_packet(const Delivery& d);

  // Topology/config members carry no phase annotation: they are written
  // only during construction and read-only afterwards, so any phase may
  // read them (ofar_lint only polices writes and serial-only calls).
  SimConfig cfg_;
  Dragonfly topo_;
  std::unique_ptr<HamiltonianRing> ring_;
  // Routers, channels and packets are partitioned by shard ownership: a
  // parallel phase touches only the slice its shard owns (a packet is owned
  // by the router currently buffering it).
  OFAR_SHARD_LOCAL std::vector<Router> routers_;
  Divisor ports_per_router_;  ///< topo_.ports_per_router(), divides ids
  /// Wake-mask slots per input port of a router: the most VCs any input
  /// port has. Built once, read-only afterwards.
  u32 park_stride_ = 0;
  /// Lifetime phits carried per dense channel id. Shard-local: a channel's
  /// counter is only bumped by its source router's shard.
  OFAR_SHARD_LOCAL std::vector<u64> channel_phits_;
  /// Per-router lazy-build flags; a router is only ever built by its owning
  /// shard (or serially), so the flags are shard-local state.
  OFAR_SHARD_LOCAL std::vector<u8> built_;
  /// Per router: the port that receives the ring. Stored, not derived,
  /// because OFAR's route() asks is_ring_input for every head.
  std::vector<PortId> ring_in_port_;
  OFAR_SHARD_LOCAL PacketPool pool_;
  OFAR_SERIAL_ONLY Stats stats_;  ///< parallel phases stage in ShardState
  std::unique_ptr<RoutingPolicy> policy_;
  OFAR_SERIAL_ONLY std::unique_ptr<TrafficSource> traffic_;
  OFAR_SERIAL_ONLY std::function<void(const TraceEvent&)> tracer_;

  OFAR_SERIAL_ONLY std::vector<OfferQueue> pending_;  // per node
  OFAR_SERIAL_ONLY u64 pending_total_ = 0;
  OFAR_SERIAL_ONLY u64 injected_total_ = 0;   // lifetime, never reset
  OFAR_SERIAL_ONLY u64 delivered_total_ = 0;  // lifetime, never reset

  // Activity worklists (see class comment). Invariants:
  //  - router_in_worklist_[r] != 0  <=>  r appears in the active_routers
  //    list of its owning shard (shards_[shard_of_router_[r]]);
  //  - every router with Router::has_activity() is in its shard's list (the
  //    list may additionally hold routers that went idle since the last
  //    refresh);
  //  - active_nodes_ holds exactly the nodes with a non-empty pending_
  //    queue: offer() lists a node as its queue turns non-empty, and the
  //    injection drain unlists it as the queue empties;
  //  - a listed node whose node_ready_ flag is clear fails the injection
  //    fits-probe (throttled router, or no injection VC with a packet of
  //    free space), so the drain may skip it.
  // The sorted flags let marks append out of order; the per-cycle
  // refresh/drain re-sorts before any phase iterates. The router worklist
  // lives inside ShardState (one list per shard); the node worklist stays
  // global because injection is always a serial phase.
  // Restore relists what note_enqueued sees, but not a router that drained
  // in the saved cycle: exact, as update_throttle released its latch then
  // and the next prune drops it before any phase reads the list.
  OFAR_SHARD_LOCAL std::vector<ShardState> shards_;
  std::vector<u32> shard_of_router_;  // built once, read-only afterwards
  OFAR_SHARD_LOCAL std::vector<u8> router_in_worklist_;
  OFAR_SERIAL_ONLY std::vector<NodeId> active_nodes_;
  OFAR_SERIAL_ONLY bool active_nodes_sorted_ = true;
  /// Per node: probe it in the next injection drain. Set when its queue
  /// turns non-empty, in every cycle a phit leaves one of its injection
  /// FIFOs (by the shard owning its router, during transfers), when its
  /// router's throttle latch releases, and for every listed node on
  /// restore; cleared by the probe.
  OFAR_SHARD_LOCAL std::vector<u8> node_ready_;

  // Worker pool for the sharded kernel's parallel phases. Its thread count
  // is sim_threads(); a one-thread pool runs the shards inline, in shard
  // order, on the calling thread.
  OFAR_SERIAL_ONLY std::unique_ptr<ShardPool> shard_pool_ =
      std::make_unique<ShardPool>(1);

  // Slots per event wheel (ShardState::phit_wheel/credit_wheel hold
  // wheel_size_ * K owner buckets): the longest latency plus one. Built
  // once, read-only afterwards.
  u32 wheel_size_ = 0;

  OFAR_SERIAL_ONLY Cycle now_ = 0;
  /// True inside step(): state_cycle() is now_ there.
  OFAR_SERIAL_ONLY bool in_step_ = false;

  // Opt-in invariant auditing (see enable_audit). next_audit_ stays at the
  // Cycle max sentinel while disabled, so the per-cycle test in step() is a
  // single never-taken compare.
  OFAR_SERIAL_ONLY std::unique_ptr<verify::InvariantAuditor> audit_;
  OFAR_SERIAL_ONLY Cycle audit_interval_ = 0;
  OFAR_SERIAL_ONLY Cycle next_audit_ = ~Cycle{0};

  // Opt-in telemetry. Declared after the members it reads: ~Telemetry may
  // stream a run-end summary, so it must be destroyed before them.
  // Deliberately NOT phase-annotated: Telemetry resolves the split at
  // method level (note_*_stall hooks are parallel-legal, everything else
  // is OFAR_SERIAL_ONLY — see stats/metrics.hpp).
  std::unique_ptr<Telemetry> telem_;

  // Opt-in tracing subsystem (src/trace). trace_sample_ applies to any
  // tracer (also ones installed via set_tracer); trace_ owns the
  // PacketTracer behind enable_tracing, whose destructor writes the
  // journeys — declared last so it runs before the members it reads.
  OFAR_SERIAL_ONLY u32 trace_sample_ = 1;
  OFAR_SERIAL_ONLY std::unique_ptr<trace::PacketTracer> trace_;
};

}  // namespace ofar
