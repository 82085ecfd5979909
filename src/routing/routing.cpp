#include "routing/routing.hpp"

#include "common/check.hpp"
#include "core/ofar_routing.hpp"
#include "routing/minimal.hpp"
#include "routing/par.hpp"
#include "routing/piggyback.hpp"
#include "routing/ugal.hpp"
#include "routing/valiant.hpp"
#include "sim/network.hpp"

namespace ofar {

const char* to_string(RouteCondition c) noexcept {
  switch (c) {
    case RouteCondition::kNone: return "none";
    case RouteCondition::kMinimal: return "minimal";
    case RouteCondition::kValiantPhase: return "valiant_phase";
    case RouteCondition::kMisrouteLocal: return "misroute_local";
    case RouteCondition::kMisrouteGlobal: return "misroute_global";
    case RouteCondition::kRingEnter: return "ring_enter";
    case RouteCondition::kRingRide: return "ring_ride";
    case RouteCondition::kRingExit: return "ring_exit";
  }
  return "unknown";
}

RouteCondition grant_condition(const RouteChoice& choice,
                               const Packet& pkt) noexcept {
  if (choice.enter_ring) return RouteCondition::kRingEnter;
  if (choice.exit_ring) return RouteCondition::kRingExit;
  if (pkt.in_ring) return RouteCondition::kRingRide;
  switch (choice.misroute) {
    case MisrouteKind::kLocal: return RouteCondition::kMisrouteLocal;
    case MisrouteKind::kGlobal: return RouteCondition::kMisrouteGlobal;
    case MisrouteKind::kNone: break;
  }
  return pkt.valiant_done ? RouteCondition::kMinimal
                          : RouteCondition::kValiantPhase;
}

void RoutingPolicy::on_inject(Network&, Packet&, RouterId) {}
void RoutingPolicy::bind_lanes(u32) {}
void RoutingPolicy::tick(Network&) {}
void RoutingPolicy::io(CkptArchive&, const Network&) {}

PortId min_port_to_router(const Network& net, RouterId cur, RouterId dst) {
  return net.topo().min_next_port(cur, dst);
}

PortId min_port_to_group(const Network& net, RouterId cur, GroupId g) {
  const Dragonfly& topo = net.topo();
  OFAR_DCHECK(topo.group_of(cur) != g);
  const RouterId carrier = topo.carrier_router(topo.group_of(cur), g);
  if (carrier == cur) return topo.carrier_port(topo.group_of(cur), g);
  return topo.local_port(topo.local_of(cur), topo.local_of(carrier));
}

VcId ordered_vc(const Network& net, PortId port, const Packet& pkt) {
  const SimConfig& cfg = net.config();
  switch (net.topo().port_class(port)) {
    case PortClass::kLocal:
      // The local VC level must skip indexes of missing hops (paper §I):
      // l2 after g1 uses local VC 1 even when l1 never happened, and the
      // second hop of an intra-group Valiant detour uses VC 1 as well.
      return static_cast<VcId>(std::min<u32>(
          pkt.global_hops + pkt.local_hops_in_group, cfg.vcs_local - 1));
    case PortClass::kGlobal:
      return static_cast<VcId>(
          std::min<u32>(pkt.global_hops, cfg.vcs_global - 1));
    default:
      return 0;  // ejection
  }
}

PortId valiant_next_port(const Network& net, RouterId at, Packet& pkt) {
  const Dragonfly& topo = net.topo();
  // Reached: the intermediate router, else the intermediate group (none
  // assigned means pure minimal).
  if (!pkt.valiant_done)
    pkt.valiant_done = pkt.inter_router != kInvalidRouter
                           ? at == pkt.inter_router
                           : pkt.inter_group == kInvalidGroup ||
                                 topo.group_of(at) == pkt.inter_group;
  if (pkt.valiant_done) return min_next_port(topo, at, pkt);
  if (pkt.inter_router != kInvalidRouter)
    return min_port_to_router(net, at, pkt.inter_router);
  return min_port_to_group(net, at, pkt.inter_group);
}

std::unique_ptr<RoutingPolicy> make_policy(const SimConfig& cfg) {
  switch (cfg.routing) {
    case RoutingKind::kMin: return std::make_unique<MinimalPolicy>();
    case RoutingKind::kVal: return std::make_unique<ValiantPolicy>(cfg);
    case RoutingKind::kPb: return std::make_unique<PiggybackPolicy>(cfg);
    case RoutingKind::kUgal: return std::make_unique<UgalPolicy>(cfg);
    case RoutingKind::kPar: return std::make_unique<ParPolicy>(cfg);
    case RoutingKind::kOfar:
      return std::make_unique<OfarPolicy>(cfg, /*allow_local=*/true);
    case RoutingKind::kOfarL:
      return std::make_unique<OfarPolicy>(cfg, /*allow_local=*/false);
  }
  OFAR_CHECK_MSG(false, "unknown routing kind");
  return nullptr;
}

}  // namespace ofar
