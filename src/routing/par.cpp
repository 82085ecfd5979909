#include "routing/par.hpp"

#include <algorithm>

#include "sim/network.hpp"

namespace ofar {

VcId par_vc(const Network& net, PortId port, const Packet& pkt) {
  const SimConfig& cfg = net.config();
  switch (net.topo().port_class(port)) {
    case PortClass::kGlobal:
      return static_cast<VcId>(
          std::min<u32>(pkt.global_hops, cfg.vcs_global - 1));
    case PortClass::kLocal: {
      // Before the first global hop a packet takes at most two local hops
      // (the minimal try plus the divert) -> L0, L1. After global hop k
      // the local level is k + 1 -> L2, L3.
      const u32 level = pkt.global_hops == 0 ? pkt.local_hops_in_group
                                             : pkt.global_hops + 1;
      return static_cast<VcId>(std::min<u32>(level, cfg.vcs_local - 1));
    }
    default:
      return 0;  // ejection
  }
}

ParPolicy::ParPolicy(const SimConfig& cfg)
    : ValiantPolicy(cfg), bias_(cfg.ugal_bias_phits) {}

void ParPolicy::on_inject(Network&, Packet& pkt, RouterId) {
  // Start minimal; the progressive decision happens hop by hop in route().
  set_valiant(pkt, {});
}

RouteChoice ParPolicy::route(RouteContext& ctx) {
  const Network& net = ctx.net;
  Packet& pkt = ctx.pkt;
  const RouterId at = ctx.at;
  const Dragonfly& topo = net.topo();

  // Progressive re-evaluation: still in the source group, no global hop
  // taken, not yet diverted, and at most one local hop spent (the divert
  // itself needs the L1 level).
  const bool adaptive = at != pkt.dst_router &&
                        topo.group_of(at) == topo.group_of_node(pkt.src) &&
                        pkt.global_hops == 0 &&
                        pkt.inter_group == kInvalidGroup &&
                        pkt.inter_router == kInvalidRouter &&
                        pkt.local_hops_in_group <= 1;
  if (adaptive)
    set_valiant(pkt, ugal_intermediate(net, pkt, at, route_rng(ctx.lane),
                                       bias_));
  const RouteChoice c =
      request_ordered(ctx, valiant_next_port(net, at, pkt), par_vc);
  // An adaptive head draws again on its next call, so it never parks.
  if (adaptive) ctx.wake = 0;
  return c;
}

}  // namespace ofar
