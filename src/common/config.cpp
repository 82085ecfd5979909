#include "common/config.hpp"

#include <algorithm>
#include <sstream>

namespace ofar {

const char* to_string(RoutingKind kind) noexcept {
  switch (kind) {
    case RoutingKind::kMin: return "MIN";
    case RoutingKind::kVal: return "VAL";
    case RoutingKind::kPb: return "PB";
    case RoutingKind::kUgal: return "UGAL";
    case RoutingKind::kPar: return "PAR";
    case RoutingKind::kOfar: return "OFAR";
    case RoutingKind::kOfarL: return "OFAR-L";
  }
  return "?";
}

const char* to_string(RingKind kind) noexcept {
  switch (kind) {
    case RingKind::kNone: return "none";
    case RingKind::kPhysical: return "physical";
    case RingKind::kEmbedded: return "embedded";
  }
  return "?";
}

bool parse_routing_kind(const std::string& text, RoutingKind& out) noexcept {
  if (text == "MIN" || text == "min") out = RoutingKind::kMin;
  else if (text == "VAL" || text == "val") out = RoutingKind::kVal;
  else if (text == "PB" || text == "pb") out = RoutingKind::kPb;
  else if (text == "UGAL" || text == "ugal") out = RoutingKind::kUgal;
  else if (text == "PAR" || text == "par") out = RoutingKind::kPar;
  else if (text == "OFAR" || text == "ofar") out = RoutingKind::kOfar;
  else if (text == "OFAR-L" || text == "ofar-l" || text == "ofarl")
    out = RoutingKind::kOfarL;
  else return false;
  return true;
}

bool parse_ring_kind(const std::string& text, RingKind& out) noexcept {
  if (text == "none") out = RingKind::kNone;
  else if (text == "physical") out = RingKind::kPhysical;
  else if (text == "embedded") out = RingKind::kEmbedded;
  else return false;
  return true;
}

std::string SimConfig::validate() const {
  if (h < 1) return "h must be >= 1";
  if (num_groups() < 2) return "at least 2 groups required";
  if (num_groups() > a() * h + 1)
    return "groups exceeds the maximum a*h + 1 supported by global ports";
  if (packet_size < 1) return "packet_size must be >= 1";
  if (fifo_local < packet_size || fifo_global < packet_size ||
      fifo_injection < packet_size)
    return "VCT requires every FIFO to hold at least one whole packet";
  if (vcs_local < 1 || vcs_global < 1 || vcs_injection < 1)
    return "at least one VC per port class required";
  // The kernel keeps one bit per output port of a router in a u64, and one
  // bit per VC of an input port in a u8. A router has p node, a - 1 local
  // and h global ports, plus one on the physical ring.
  const u64 ports = 4 * u64{h} - 1 + (ring == RingKind::kPhysical ? 1 : 0);
  if (ports > 64)
    return "a router has " + std::to_string(ports) +
           " ports, more than the 64 the kernel holds (h <= 16)";
  const u64 widest = std::max({vcs_injection, vcs_local, vcs_global}) +
                     u64{ring == RingKind::kEmbedded ? 1u : 0u};
  if (widest > 8)
    return "an input port has " + std::to_string(widest) +
           " VCs, more than the 8 the kernel holds (the embedded ring adds "
           "one)";
  if (vc_ordered()) {
    // The hop-ordered discipline needs VC = hop level of that link class:
    // up to 3 local hops (l1,l2,l3) and 2 global hops (g1,g2); MIN gets by
    // with 2/1 and PAR's extra source-group hop needs a 4th local VC.
    u32 need_local = 3, need_global = 2;
    if (routing == RoutingKind::kMin) { need_local = 2; need_global = 1; }
    if (routing == RoutingKind::kPar) need_local = 4;
    if (vcs_local < need_local || vcs_global < need_global)
      return "VC-ordered mechanism requires 3 local / 2 global VCs "
             "(2/1 for MIN, 4 local for PAR)";
  } else if (ring == RingKind::kNone) {
    return "OFAR requires an escape ring (physical or embedded)";
  }
  if (ring != RingKind::kNone && ring_stride == 0)
    return "ring_stride must be >= 1";
  if (thresholds.th_min < 0.0 || thresholds.th_min > 1.0)
    return "th_min must be in [0,1]";
  if (allocator_iterations < 1) return "allocator_iterations must be >= 1";
  if (sim_shards < 1) return "sim_shards must be >= 1";
  if (congestion_throttle &&
      !(0.0 <= throttle_off && throttle_off <= throttle_on &&
        throttle_on <= 1.0))
    return "throttle thresholds must satisfy 0 <= off <= on <= 1";
  return {};
}

std::string SimConfig::summary() const {
  std::ostringstream os;
  os << "dragonfly h=" << h << " (p=" << p() << ", a=" << a()
     << ", groups=" << num_groups() << ", routers=" << num_groups() * a()
     << ", nodes=" << num_groups() * a() * p() << ") routing="
     << to_string(routing) << " ring=" << to_string(ring)
     << " vcs=" << vcs_local << "l/" << vcs_global << "g"
     << " seed=" << seed;
  if (sim_shards > 1) os << " shards=" << sim_shards;
  return os.str();
}

}  // namespace ofar
