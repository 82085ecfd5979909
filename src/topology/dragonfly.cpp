#include "topology/dragonfly.hpp"

#include <sstream>

namespace ofar {

const char* to_string(PortClass c) noexcept {
  switch (c) {
    case PortClass::kNode: return "node";
    case PortClass::kLocal: return "local";
    case PortClass::kGlobal: return "global";
    case PortClass::kRing: return "ring";
  }
  return "?";
}

Dragonfly::Dragonfly(u32 h, u32 groups, bool physical_ring)
    : h_(h), groups_(groups == 0 ? 2 * h * h + 1 : groups),
      physical_ring_(physical_ring) {
  OFAR_CHECK_MSG(h >= 1, "h must be >= 1");
  OFAR_CHECK_MSG(groups_ >= 2, "at least two groups");
  OFAR_CHECK_MSG(groups_ <= max_groups(),
                 "groups exceeds global port capacity a*h + 1");
  h_div_ = Divisor(h_);
  a_div_ = Divisor(a());
  // Port masks need every port below 64; larger radixes fail the Network's
  // own port-count check before any mask is read.
  if (ports_per_router() <= 64) {
    local_mask_ = ((u64{1} << (a() - 1)) - 1) << first_local_port();
    global_mask_ = ((u64{1} << h_) - 1) << first_global_port();
  }
}

PortClass Dragonfly::port_class(PortId port) const noexcept {
  const u32 idx = port;
  if (idx < p()) return PortClass::kNode;
  if (idx < p() + a() - 1) return PortClass::kLocal;
  if (idx < p() + a() - 1 + h_) return PortClass::kGlobal;
  OFAR_DCHECK(physical_ring_ && idx == ring_port());
  return PortClass::kRing;
}

PortId Dragonfly::min_next_port(RouterId cur, RouterId dst) const noexcept {
  OFAR_DCHECK(cur != dst);
  const GroupId gc = group_of(cur);
  const GroupId gd = group_of(dst);
  if (gc == gd) return local_port(local_of(cur), local_of(dst));
  const u32 slot = global_slot(gc, gd);
  const u32 carrier = slot_carrier(slot);
  if (local_of(cur) == carrier) return slot_port(slot);
  return local_port(local_of(cur), carrier);
}

u32 Dragonfly::min_hops(RouterId from, RouterId to) const noexcept {
  if (from == to) return 0;
  const GroupId gf = group_of(from);
  const GroupId gt = group_of(to);
  if (gf == gt) return 1;
  u32 hops = 1;  // the global hop
  const RouterId out = carrier_router(gf, gt);
  if (out != from) ++hops;
  const auto far = global_peer(out, carrier_port(gf, gt));
  if (far.router != to) ++hops;
  return hops;
}

std::string Dragonfly::describe() const {
  std::ostringstream os;
  os << "dragonfly(h=" << h_ << ", p=" << p() << ", a=" << a()
     << ", groups=" << groups_ << ", routers=" << routers()
     << ", nodes=" << nodes()
     << (physical_ring_ ? ", +ring port" : "") << ")";
  return os.str();
}

}  // namespace ofar
