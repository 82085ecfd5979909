#include "routing/minimal.hpp"

#include "sim/network.hpp"

namespace ofar {

RouteChoice MinimalPolicy::route(RouteContext& ctx) {
  return request_ordered(ctx, min_next_port(ctx.net.topo(), ctx.at, ctx.pkt),
                         ordered_vc);
}

}  // namespace ofar
