// Routing mechanism interface.
//
// A RoutingPolicy is consulted (a) once when a packet is injected — where
// VAL/PB/UGAL fix their Valiant intermediate and PB/UGAL take their
// minimal-vs-nonminimal decision — and (b) every cycle for every packet at
// the head of an input VC (the paper's "routing decision ... revisited every
// cycle as long as the packet remains in the queue head", §V).
//
// route() returns the single output (port, VC) the input unit will request
// from the allocator this cycle, or an invalid choice to wait.
#pragma once

#include <bit>
#include <memory>

#include "common/config.hpp"
#include "common/phase.hpp"
#include "common/types.hpp"
#include "sim/flat_state.hpp"
#include "sim/packet.hpp"
#include "topology/dragonfly.hpp"

namespace ofar {

class Network;
class CkptArchive;

enum class MisrouteKind : u8 { kNone, kLocal, kGlobal };

/// Which rule of the mechanism produced a granted hop — the "why" behind
/// every traced hop (src/trace). grant_condition() derives it from the
/// grant.
enum class RouteCondition : u8 {
  kNone,           ///< no decision recorded
  kMinimal,        ///< minimal output had room and was requested
  kValiantPhase,   ///< minimal hop toward the Valiant intermediate
  kMisrouteLocal,  ///< OFAR: Q_min >= Th_min, local candidate chosen
  kMisrouteGlobal, ///< OFAR: Q_min >= Th_min, global candidate chosen
  kRingEnter,      ///< escape-ring entry (bubble condition satisfied)
  kRingRide,       ///< in-ring forward step along the ring
  kRingExit,       ///< left the ring (minimal output free, or ejection)
};

const char* to_string(RouteCondition c) noexcept;

/// Decision provenance: the congestion evidence a routing decision was
/// taken on, captured at decision time. route() fills it only when the
/// caller passes a non-null out-param (a traced packet), so the plain
/// hot path never pays for it; the grant fills in `condition`. All
/// occupancies are fractions in [0, 1].
/// Shard-local: a provenance record belongs to the packet being routed,
/// and a packet is only ever routed by the shard that owns its router.
struct OFAR_SHARD_LOCAL RouteProvenance {
  static constexpr u32 kMaxCandidates = 8;

  RouteCondition condition = RouteCondition::kNone;  ///< grant_condition()
  u8 num_candidates = 0;       ///< eligible non-minimal candidates found
  PortId min_port = kInvalidPort;  ///< recomputed minimal output this hop
  float q_min = 0.0f;          ///< occupancy of the minimal output
  float threshold = 0.0f;      ///< non-minimal admission threshold in force
  float chosen_occ = 0.0f;     ///< occupancy of the chosen output
  /// First kMaxCandidates eligible candidate ports (the set the random
  /// pick drew from); num_candidates may exceed the stored prefix.
  PortId candidates[kMaxCandidates] = {
      kInvalidPort, kInvalidPort, kInvalidPort, kInvalidPort,
      kInvalidPort, kInvalidPort, kInvalidPort, kInvalidPort};

  /// Records the candidate set `ports` (bit p = port p), ascending.
  void set_candidates(u64 ports) {
    num_candidates = static_cast<u8>(std::popcount(ports));
    for (u32 i = 0; i < kMaxCandidates && ports != 0; ++i) {
      candidates[i] = static_cast<PortId>(std::countr_zero(ports));
      ports &= ports - 1;
    }
  }
};

struct RouteChoice {
  PortId out_port = kInvalidPort;
  VcId out_vc = 0;
  MisrouteKind misroute = MisrouteKind::kNone;
  bool enter_ring = false;  ///< requests the escape ring (bubble condition)
  bool exit_ring = false;   ///< head is in the ring and leaves it here
  bool valid = false;

  static RouteChoice none() noexcept { return {}; }
  static RouteChoice to(PortId port, VcId vc) noexcept {
    RouteChoice c;
    c.out_port = port;
    c.out_vc = vc;
    c.valid = true;
    return c;
  }
};

/// Everything a per-cycle routing decision needs, bundled into one struct
/// so new inputs (like the memoized credit view) stop rippling through
/// every policy override's signature. Built fresh per head packet by the
/// allocation scan; `view` is already bound to router `at` when route()
/// runs, so policies query credits/occupancy through it (same values as
/// the Network::base_* queries, computed once per router per cycle).
struct RouteContext {
  const Network& net;  ///< read-only: route() cannot change the network
  CreditView& view;  ///< memoized per-(router, cycle) credit snapshot
  RouterId at;
  PortId in_port;
  VcId in_vc;
  Packet& pkt;
  /// Shard lane of the parallel allocation phase (DESIGN.md §10). Policies
  /// that draw randomness inside route() must draw from the per-lane RNG so
  /// concurrent shards never share a stream; lane 0 is the sequential one.
  u32 lane;
  /// When non-null, the policy records the evidence behind the decision
  /// (packet tracing); filling it must not change the decision or consume
  /// extra RNG draws.
  RouteProvenance* prov = nullptr;
  /// Read only when route() fails. Non-zero parks the head (DESIGN.md §6):
  /// the policy found no output the head could use available, and names
  /// every such output here (bit p = output port p). The kernel skips the
  /// head until one of them rises: a VC of the idle port reaches one
  /// packet (or packet plus bubble) of credits, or its transfer ends with
  /// a packet of credits on some VC. A policy leaves it 0 when anything
  /// else could change the outcome: a draw of RNG, or an available output
  /// that only its occupancy kept out.
  u64 wake = 0;
};

class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;

  virtual const char* name() const noexcept = 0;

  /// Called when `pkt` enters the injection queue of router `at`.
  /// Injection is always a serial phase: on_inject may freely draw from the
  /// policy's sequential RNG stream and mutate policy state.
  OFAR_SERIAL_ONLY virtual void on_inject(Network& net, Packet& pkt,
                                          RouterId at);

  /// Desired output for the head packet of (ctx.in_port, ctx.in_vc) at
  /// router ctx.at. Must only return outputs that are grantable right now:
  /// output port not busy and enough credits on the chosen VC (the whole
  /// packet for VCT, one extra packet — the bubble — when enter_ring is
  /// set). Policies must not mutate shared state from route(); randomness
  /// comes from the per-lane RNG selected by ctx.lane (see RouteContext).
  OFAR_PARALLEL_PHASE virtual RouteChoice route(RouteContext& ctx) = 0;

  /// Announces the number of route() lanes the kernel will use (the shard
  /// count). Called once at Network construction, before any traffic.
  /// Policies without route()-time randomness can ignore it.
  OFAR_SERIAL_ONLY virtual void bind_lanes(u32 lanes);

  /// Per-cycle global update hook (PB's intra-group broadcast). Always
  /// called serially, between event delivery and the transfer phase.
  OFAR_SERIAL_ONLY virtual void tick(Network& net);

  /// Checkpoint hook (core/checkpoint.hpp): passes the policy's mutable
  /// state (RNG streams, broadcast tables) through `ar`, which saves or
  /// restores it, so a restored run replays the exact draw sequence. State
  /// whose size `net` fixes is checked against it. The default has no
  /// state (stateless policies).
  OFAR_SERIAL_ONLY virtual void io(CkptArchive& ar, const Network& net);
};

/// Builds the policy selected by cfg.routing (OFAR variants live in
/// src/core, baselines in src/routing).
std::unique_ptr<RoutingPolicy> make_policy(const SimConfig& cfg);

/// Condition of a granted hop (a valid `choice` for `pkt`): ring entry or
/// exit from the choice's flags, a ride for a packet on the ring, a
/// misroute from its kind, else a minimal or a Valiant-phase hop. Reads
/// the packet as route() left it; a grant changes none of what it reads
/// except `in_ring`, and only together with a ring flag of the choice.
RouteCondition grant_condition(const RouteChoice& choice,
                               const Packet& pkt) noexcept;

// ---- shared helpers used by several mechanisms ----

/// Output port of `cur` on the minimal path toward router `dst` (`cur` !=
/// `dst`): the ejection port is never returned here — callers handle
/// cur == dst themselves.
PortId min_port_to_router(const Network& net, RouterId cur, RouterId dst);

/// Minimal next port of `pkt` at router `at`: its ejection port at the
/// destination router, else the minimal output toward that router.
inline PortId min_next_port(const Dragonfly& topo, RouterId at,
                            const Packet& pkt) noexcept {
  return at == pkt.dst_router ? topo.node_port(topo.node_slot(pkt.dst))
                              : topo.min_next_port(at, pkt.dst_router);
}

/// Output port of `cur` on the minimal path toward group `g` (`cur` must be
/// outside `g`): the global port if `cur` carries the link, else the local
/// port toward the carrier.
PortId min_port_to_group(const Network& net, RouterId cur, GroupId g);

/// Hop-ordered VC for a packet about to traverse `port` (VC-ordered
/// mechanisms only): local hops use VC = #local hops taken, global hops use
/// VC = #global hops taken.
VcId ordered_vc(const Network& net, PortId port, const Packet& pkt);

/// The request step of the VC-ordered mechanisms: output `out` on the VC
/// `vc_of` assigns (ordered_vc, or PAR's par_vc) when the port is wired
/// and idle and that VC holds a whole packet's credits, else a wait that
/// only a rise of `out` can end (ctx.wake). A traced head records the
/// port and its occupancy. Inline, so each route() computes the VC only
/// for a wired, idle port.
inline RouteChoice request_ordered(RouteContext& ctx, PortId out,
                                   VcId (*vc_of)(const Network&, PortId,
                                                 const Packet&)) {
  const OutputPort& port = ctx.view.router().outputs[out];
  if (RouteProvenance* const prov = ctx.prov) {
    prov->min_port = out;
    prov->q_min = static_cast<float>(ctx.view.base_occupancy(out));
    prov->chosen_occ = prov->q_min;
  }
  if (port.wired() && !port.busy()) {
    const VcId vc = vc_of(ctx.net, out, ctx.pkt);
    if (port.credit(vc, ctx.view.now()) >= ctx.view.packet_size())
      return RouteChoice::to(out, vc);
  }
  ctx.wake = u64{1} << out;
  return RouteChoice::none();
}

/// Minimal-path next port for a Valiant-style packet: toward the
/// intermediate (group or router) until reached, then toward dst.
/// Marks the Valiant phase done when the intermediate is reached.
/// Returns the ejection port when the packet is at its destination router.
PortId valiant_next_port(const Network& net, RouterId at, Packet& pkt);

}  // namespace ofar
