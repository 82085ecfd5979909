#include "routing/ugal.hpp"

#include "sim/network.hpp"

namespace ofar {

namespace {

u32 queued_phits_on(const Network& net, const Router& r, PortId port) {
  const u32 count = net.base_vcs(port);
  if (count == 0) return 0;
  return r.outputs[port].queued_phits(
      0, count, static_cast<u32>(net.state_cycle()));
}

/// The two candidate paths of one UGAL evaluation: queued phits on each
/// first hop and router-to-router hops of each path.
struct UgalPaths {
  u32 q_min = 0;
  u32 h_min = 0;
  u32 q_val = 0;
  u32 h_val = 0;
  Intermediate inter;  ///< the Valiant candidate; none when no path exists
};

/// Evaluates the minimal path and one random Valiant candidate for a packet
/// at router `at` != pkt.dst_router.
UgalPaths evaluate_ugal_paths(const Network& net, const Packet& pkt,
                              RouterId at, Rng& rng) {
  const Dragonfly& topo = net.topo();
  const Router& r = net.router(at);
  UgalPaths out;
  OFAR_DCHECK(at != pkt.dst_router);

  out.q_min = queued_phits_on(net, r, min_port_to_router(net, at,
                                                         pkt.dst_router));
  out.h_min = topo.min_hops(at, pkt.dst_router);
  out.inter = pick_intermediate(topo, at, pkt.dst_router, rng);
  if (out.inter.group != kInvalidGroup) {
    const GroupId gs = topo.group_of(at);
    const GroupId inter = out.inter.group;
    out.q_val = queued_phits_on(net, r, min_port_to_group(net, at, inter));
    // Exact Valiant hop count: to the carrier, over the global link, then
    // minimally from the entry router of the intermediate group.
    const RouterId carrier = topo.carrier_router(gs, inter);
    const auto entry = topo.global_peer(carrier, topo.carrier_port(gs, inter));
    out.h_val = (carrier == at ? 0u : 1u) + 1u +
                topo.min_hops(entry.router, pkt.dst_router);
  } else if (out.inter.router != kInvalidRouter) {
    // Intra-group: Valiant through a random intermediate router.
    out.q_val = queued_phits_on(
        net, r, min_port_to_router(net, at, out.inter.router));
    out.h_val = 2;
  }
  return out;
}

}  // namespace

Intermediate ugal_intermediate(const Network& net, const Packet& pkt,
                               RouterId at, Rng& rng, i32 bias,
                               bool minimal_vetoed) {
  if (at == pkt.dst_router) return {};
  const UgalPaths p = evaluate_ugal_paths(net, pkt, at, rng);
  const bool minimal =
      !p.inter.valid() ||
      static_cast<i64>(p.q_min) * p.h_min <=
          static_cast<i64>(p.q_val) * p.h_val + bias;
  return minimal && !minimal_vetoed ? Intermediate{} : p.inter;
}

UgalPolicy::UgalPolicy(const SimConfig& cfg)
    : ValiantPolicy(cfg), bias_(cfg.ugal_bias_phits) {}

void UgalPolicy::on_inject(Network& net, Packet& pkt, RouterId at) {
  set_valiant(pkt, ugal_intermediate(net, pkt, at, rng_, bias_));
}

}  // namespace ofar
