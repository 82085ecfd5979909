#include "core/escape_ring.hpp"

#include "sim/network.hpp"

namespace ofar {

RouteChoice EscapeRingControl::ring_step(RouteContext& ctx, u32 need) const {
  VcId vc;
  const bool free = ctx.view.ring_vc(need, vc);
  const PortId port = ctx.view.ring_port();
  if (free) return RouteChoice::to(port, vc);
  ctx.wake |= u64{1} << port;
  return RouteChoice::none();
}

RouteChoice EscapeRingControl::ride(RouteContext& ctx) const {
  const Packet& pkt = ctx.pkt;
  RouteProvenance* const prov = ctx.prov;
  CreditView& view = ctx.view;
  const bool at_dst = ctx.at == pkt.dst_router;

  // Leave the ring through the minimal output when it is free: always at
  // the destination router (the ejection port), elsewhere only while the
  // livelock budget allows another exit.
  if (at_dst || pkt.ring_exits < max_exits_) {
    const PortId out = min_next_port(ctx.net.topo(), ctx.at, pkt);
    if (prov) {
      prov->min_port = out;
      prov->q_min = static_cast<float>(view.base_occupancy(out));
    }
    if (view.base_available(out)) {
      VcId vc;
      view.best_base_vc(out, vc);
      RouteChoice c = RouteChoice::to(out, vc);
      c.exit_ring = true;
      if (prov) prov->chosen_occ = prov->q_min;
      return c;
    }
    ctx.wake = u64{1} << out;
    if (at_dst) return RouteChoice::none();  // wait for the ejection port
  }
  // Otherwise keep riding: in-ring movement needs one packet of space.
  // A failed step parks the head on the exit and the ring output.
  return ring_step(ctx, packet_size_);
}

RouteChoice EscapeRingControl::enter(RouteContext& ctx) const {
  // Bubble condition: the next ring buffer must fit this packet PLUS one
  // more (the bubble), so the ring can always drain.
  RouteChoice c = ring_step(ctx, 2 * packet_size_);
  if (c.valid) c.enter_ring = true;
  return c;
}

}  // namespace ofar
