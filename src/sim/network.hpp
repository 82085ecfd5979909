// Single-cycle network engine (paper §V).
//
// Owns the topology, routers, channels, packet pool, routing policy, escape
// ring, traffic source and statistics, and advances them one synchronous
// cycle at a time:
//
//   1. deliver phit/credit events whose wire latency elapsed,
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
// Timing conventions: a grant at cycle t streams phits at t+1..t+size; a
// phit sent at cycle t is delivered at t + latency; the credit for a phit
// leaving a FIFO at cycle t is usable upstream at t + latency.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/config.hpp"
#include "common/parallel.hpp"
#include "common/phase.hpp"
#include "common/rng.hpp"
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
///   field       | kInject | kGrant | kRingEnter/kRingExit | kDeliver
///   ------------+---------+--------+----------------------+----------
///   packet,cycle,router,src,dst,seq: valid for every kind
///   out_port    |    —    | chosen | ring/exit output     | ejection port
///   out_vc      |    —    | chosen | ring/exit VC         | 0
///   misroute    |  kNone  | chosen | kNone                | kNone
///   ring_move   |  false  | set    | true                 | false
///   in_port     |    —    | input port of the granted head| —
///   in_vc       |    —    | input VC of the granted head  | —
///   queue_wait  |    0    | cycles head waited since last progress | 0
///   prov        | default | routing-decision provenance   | default
///
/// ("—" = the field keeps its default). kRingEnter/kRingExit are emitted
/// immediately after the kGrant that enters/leaves the escape ring and
/// duplicate that grant's fields, so consumers can treat ring transitions
/// as markers without re-deriving them from grant flags.
struct TraceEvent {
  enum class Kind : u8 {
    kInject,     ///< packet placed into an injection FIFO
    kGrant,      ///< allocator grant: packet starts crossing to out_port
    kRingEnter,  ///< the grant entered the escape ring (bubble admitted)
    kRingExit,   ///< the grant left the escape ring (minimal free/eject)
    kDeliver,    ///< tail phit reached the destination node
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
  unsigned sim_threads() const noexcept { return sim_threads_; }

  /// Installs the traffic source (owned).
  void set_traffic(std::unique_ptr<TrafficSource> source);
  TrafficSource* traffic() { return traffic_.get(); }

  /// True when no packet is pending, buffered or in flight anywhere.
  bool drained() const noexcept {
    return pool_.live_count() == 0 && pending_total_ == 0;
  }

  // ---- injection API (used by traffic sources) ----
  /// Queues an offer in the node's unbounded source queue (Bernoulli).
  void offer(NodeId src, NodeId dst, u16 tag);
  /// Injects directly if the injection FIFO has room; false otherwise.
  bool try_inject(NodeId src, NodeId dst, u16 tag);

  // ---- structure accessors ----
  const SimConfig& config() const noexcept { return cfg_; }
  const Dragonfly& topo() const noexcept { return topo_; }
  const HamiltonianRing* ring() const noexcept { return ring_.get(); }
  /// Mutating access builds the router on first touch (serial contexts:
  /// drivers and tests crafting router state). The const overload returns
  /// the shell as-is — callers iterating structure must either check
  /// router_built() or opt into cfg.wiring_table's eager construction.
  Router& router(RouterId r) {
    ensure_router_built(r);
    return routers_[r];
  }
  const Router& router(RouterId r) const { return routers_[r]; }

  // ---- channel id scheme (implicit wiring) ----
  // Channel ids are dense: id = src_router * ports_per_router + src_port.
  // In the default implicit mode a descriptor is resolved arithmetically on
  // the fly; cfg.wiring_table materializes the table once (debug/reference
  // mode) and serves lookups from it. Both modes use identical ids, and for
  // untrimmed topologies they coincide with the historical sequential ids.
  /// Resolved descriptor of a *wired* channel id (by value: there may be no
  /// stored object behind it). Binding the result to a const reference at
  /// call sites is fine (lifetime extension).
  Channel channel(ChannelId c) const {
    OFAR_DCHECK(channel_wired(c));
    return channels_.empty() ? resolve_channel(c) : channels_[c];
  }
  /// True when the dense id maps to an existing link. The only holes are
  /// unwired global slots of trimmed (groups < max) topologies.
  bool channel_wired(ChannelId c) const noexcept;
  /// One-past the largest dense channel id: routers * ports_per_router.
  /// Iteration over [0, num_channels()) must skip !channel_wired(c).
  std::size_t num_channels() const noexcept {
    return std::size_t{routers_.size()} * ports_per_router_;
  }
  /// Lifetime phits carried by channel `c` (§III link-load analysis).
  u64 channel_phits(ChannelId c) const noexcept { return channel_phits_[c]; }
  PacketPool& packets() noexcept { return pool_; }
  const PacketPool& packets() const noexcept { return pool_; }
  Rng& rng() noexcept { return rng_; }
  Stats& stats() noexcept { return stats_; }
  const Stats& stats() const noexcept { return stats_; }
  RoutingPolicy& policy() noexcept { return *policy_; }

  // ---- lazy construction (implicit mode; see DESIGN.md §"Scale") ----
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
  /// VC range a non-escape packet may use on output port `port`.
  void base_vc_range(RouterId r, PortId port, u32& first, u32& count) const;
  /// Escape-ring VC range on the ring output of router r; count == 0 when
  /// `port` is not the ring output.
  struct RingOut {
    PortId port = kInvalidPort;
    u32 first_vc = 0;
    u32 num_vcs = 0;
  };
  const RingOut& ring_out(RouterId r) const {
    OFAR_DCHECK(ring_ != nullptr);
    return ring_out_[r];
  }
  /// True when (port, vc) of router r's *input* side belongs to the ring.
  bool is_ring_input(RouterId r, PortId port, VcId vc) const;

  /// Occupancy fraction of an output port over its base (non-escape) VCs.
  double base_occupancy(const Router& r, PortId port) const;
  /// True when `port` can accept a whole packet now on some base VC
  /// (not busy, wired, credits >= packet size).
  bool base_available(const Router& r, PortId port) const;
  /// Best base VC of `port` (most credits, >= packet size); false if none.
  bool best_base_vc(const Router& r, PortId port, VcId& vc) const;

  /// Number of phits a node's injection FIFOs can still accept.
  u32 injection_free_phits(NodeId node) const;

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
  void set_trace_sampling(u32 denom) noexcept {
    trace_sample_ = denom == 0 ? 1 : denom;
  }
  u32 trace_sampling() const noexcept { return trace_sample_; }

  /// Enables the full tracing subsystem (src/trace): installs a
  /// PacketTracer as the tracer callback, applies tcfg.sample, and arms the
  /// flight recorder (dumped automatically on InvariantAuditor failure or
  /// deadlock forensics). Replaces any previous tracer. Tracing is
  /// read-only instrumentation: no simulation outcome or RNG draw changes.
  void enable_tracing(const trace::TracerConfig& tcfg);
  trace::PacketTracer* packet_tracer() noexcept { return trace_.get(); }

  /// Deep flow-control conservation check: true iff the network is fully
  /// drained AND every FIFO is empty, every credit counter restored to
  /// capacity, and no event is in flight. Used by tests after drain.
  bool check_quiescent() const;

  /// Mid-run credit-conservation audit. For every (channel, VC):
  ///   upstream credits + downstream stored phits + phits on the wire
  ///   + credits on the wire + unsent phits of an active transfer
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

  struct PhitEvent {
    ChannelId ch;
    PacketId pkt;
    VcId vc;
    u8 head;  // first phit of the packet
    u8 tail;  // last phit of the packet
  };
  struct CreditEvent {
    ChannelId ch;
    VcId vc;
  };
  struct Offer {
    NodeId dst;
    u16 tag;
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
  /// struct. Phit and credit events go into the shard's own event wheels;
  /// every other cross-shard effect (stats, traces, deliveries) is staged
  /// here and committed serially in shard-ascending order, which equals
  /// router-ascending generation order. Never commit by thread-arrival
  /// order.
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

    // Event wheels indexed by cycle % wheel size. The transfer phase pushes
    // every phit and credit event this shard generates into its own wheels
    // (every latency is >= 1, so never into the slot being delivered); the
    // delivery phase reads the current slot of every shard's wheels, and
    // the serial commit clears those slots.
    std::vector<std::vector<PhitEvent>> phit_wheel;
    std::vector<std::vector<CreditEvent>> credit_wheel;

    // Staged side effects, committed serially in shard order.
    std::vector<PacketId> delivered;  ///< ejected tails, slot-scan order
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

  void build_channels();
  void build_ring();

  /// Arithmetic channel resolution (implicit mode); also the single source
  /// of truth the wiring-table mode materializes from.
  Channel resolve_channel(ChannelId c) const;

  /// Binds router r's FIFO/credit/arbiter state onto its shard arena and
  /// wires its ports (channel ids, cached latencies, credit caps sized from
  /// the downstream input_shape). Parallel-legal from the owning shard's
  /// delivery phase: all written state is shard-local.
  OFAR_PARALLEL_PHASE void build_router(RouterId r);
  OFAR_PARALLEL_PHASE void ensure_router_built(RouterId r) {
    if (built_[r] == 0) build_router(r);
  }

  OFAR_SERIAL_ONLY void update_throttle();
  /// Transfer/allocation phases, per shard: phit and credit events go into
  /// the shard's own wheels, stats counts and trace events into its
  /// staging for the serial commit.
  OFAR_PARALLEL_PHASE void advance_transfers(ShardState& sh);
  OFAR_PARALLEL_PHASE void do_allocation(ShardState& sh, u32 lane);
  /// True when router `r`'s escape-ring output could move one whole packet
  /// this cycle (wired, transfer-idle, a packet of credits on some escape
  /// VC). Conservative upper bound for entry, which needs the bubble too.
  OFAR_PARALLEL_PHASE bool ring_can_take_packet(const Router& r) const;
  OFAR_PARALLEL_PHASE void commit_grant(ShardState& sh, Router& r,
                                        const AllocRequest& rq,
                                        const RouteProvenance* prov);
  OFAR_SERIAL_ONLY void do_injection();
  OFAR_SERIAL_ONLY void run_watchdog();
  /// step() with the phase profiler wrapped around each phase; selected by
  /// a single telem_ null test so the plain path stays instrumentation-free.
  OFAR_SERIAL_ONLY void step_instrumented();
  /// Periodic auditor driver: runs the full check suite and aborts with the
  /// report on any violation. Reschedules itself audit_interval_ ahead.
  OFAR_SERIAL_ONLY void run_audit();

  /// One shard's slice of event delivery: scans the current slot of every
  /// shard's wheels, in shard order, and applies only the events it owns
  /// (phit: the destination router's shard; ejection and credit: the source
  /// router's shard). Read-shared / write-own, so shards need no locks; the
  /// slots are cleared serially afterwards in commit_shard_deliveries().
  OFAR_PARALLEL_PHASE void deliver_events_shard(ShardState& sh, u32 shard);
  /// Serial: clears the current wheel slots and performs the staged packet
  /// deliveries (stats doubles, tracer, pool destroy) in shard order.
  OFAR_SERIAL_ONLY void commit_shard_deliveries();
  /// Serial: flushes staged traces and stat counters in shard-ascending
  /// order.
  OFAR_SERIAL_ONLY void commit_shard_staging();
  /// Dispatches fn(shard) for every shard on the worker pool (or inline
  /// when single-threaded) and waits for all of them.
  OFAR_SERIAL_ONLY void run_shard_phase(const std::function<void(u32)>& fn);

  // ---- activity worklists ----
  /// Adds router r to the active worklist (idempotent). Called whenever a
  /// packet enters one of r's input FIFOs; r leaves the list via the prune
  /// pass fused into advance_transfers() once it holds no packet and
  /// streams nothing.
  /// Parallel-legal: a shard only ever marks routers it owns, and both the
  /// membership flag and the worklist it appends to live in that shard's
  /// slice (router_in_worklist_[r] / shards_[shard_of_router_[r]]).
  OFAR_PARALLEL_PHASE void mark_router_active(RouterId r);
  /// Adds node n to the pending-injection worklist (idempotent).
  OFAR_SERIAL_ONLY void mark_node_pending(NodeId n);

  /// Creates the packet object for an accepted injection.
  OFAR_SERIAL_ONLY void place_packet(NodeId src, const Offer& offer);
  /// Final delivery at the destination node.
  OFAR_SERIAL_ONLY void deliver_packet(PacketId id);

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
  /// Materialized descriptor table, dense-indexed; EMPTY in the default
  /// implicit mode (descriptors are resolved arithmetically on demand) and
  /// populated only under cfg.wiring_table (debug/reference mode). Either
  /// way it is written once at construction and read-only afterwards.
  std::vector<Channel> channels_;
  u32 ports_per_router_ = 0;  ///< cached topo_.ports_per_router()
  /// Lifetime phits carried per dense channel id. Shard-local: a channel's
  /// counter is only bumped by its source router's shard.
  OFAR_SHARD_LOCAL std::vector<u64> channel_phits_;
  /// Per-router lazy-build flags; a router is only ever built by its owning
  /// shard (or serially), so the flags are shard-local state.
  OFAR_SHARD_LOCAL std::vector<u8> built_;
  std::vector<RingOut> ring_out_;          // per router
  std::vector<PortId> ring_in_port_;       // per router (embedded/physical)
  std::vector<u32> ring_in_first_vc_;      // per router
  std::vector<u32> ring_in_num_vcs_;       // per router
  OFAR_SHARD_LOCAL PacketPool pool_;
  OFAR_SERIAL_ONLY Rng rng_;  ///< parallel phases draw via policy lane RNGs
  OFAR_SERIAL_ONLY Stats stats_;  ///< parallel phases stage in ShardState
  std::unique_ptr<RoutingPolicy> policy_;
  /// Per-cycle constant, latched serially at the top of step(): true when
  /// do_allocation may skip a router's whole request scan once its
  /// availability mask is empty and the ring cannot move (requires a
  /// pure-when-blocked policy and no tracer/telemetry observing the
  /// failing calls). Read-only during parallel phases.
  bool skip_blocked_scans_ = false;
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
  //    queue after each do_injection.
  // The sorted flags let marks append out of order; the per-cycle
  // refresh/drain re-sorts before any phase iterates. The router worklist
  // lives inside ShardState (one list per shard); the node worklist stays
  // global because injection is always a serial phase.
  OFAR_SHARD_LOCAL std::vector<ShardState> shards_;
  std::vector<u32> shard_of_router_;  // built once, read-only afterwards
  OFAR_SHARD_LOCAL std::vector<u8> router_in_worklist_;
  OFAR_SERIAL_ONLY std::vector<NodeId> active_nodes_;
  OFAR_SERIAL_ONLY std::vector<u8> node_in_worklist_;
  OFAR_SERIAL_ONLY bool active_nodes_sorted_ = true;

  // Worker pool for the sharded kernel's parallel phases; null when
  // sim_threads_ == 1 (phases run inline on the calling thread).
  OFAR_SERIAL_ONLY std::unique_ptr<ShardPool> shard_pool_;
  OFAR_SERIAL_ONLY unsigned sim_threads_ = 1;

  // Slots per event wheel (ShardState::phit_wheel/credit_wheel): the
  // longest latency plus one. Built once, read-only afterwards.
  u32 wheel_size_ = 0;

  OFAR_SERIAL_ONLY Cycle now_ = 0;

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
  // PacketTracer behind enable_tracing, whose destructor flushes the
  // exporters — declared last so it runs before the members it reads.
  OFAR_SERIAL_ONLY u32 trace_sample_ = 1;
  OFAR_SERIAL_ONLY std::unique_ptr<trace::PacketTracer> trace_;
};

}  // namespace ofar
