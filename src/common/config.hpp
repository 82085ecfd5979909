// Simulation configuration: every knob of the router/network model and the
// routing mechanisms, with the paper's §V evaluation setup as defaults.
#pragma once

#include <concepts>
#include <string>
#include <type_traits>

#include "common/types.hpp"

namespace ofar {

/// Routing/flow-control mechanism selector (paper §V list + UGAL-L extension).
enum class RoutingKind {
  kMin,    ///< minimal l-g-l routing
  kVal,    ///< Valiant: always misroute through a random intermediate group
  kPb,     ///< Piggybacking (Jiang et al. ISCA'09): injection-time adaptive
  kUgal,   ///< UGAL-L: injection-time adaptive on local queue occupancy only
  kPar,    ///< Progressive Adaptive Routing: re-decides inside the source
           ///< group; needs one extra local VC (Jiang et al. ISCA'09)
  kOfar,   ///< this paper: in-transit adaptive, local+global misrouting
  kOfarL,  ///< OFAR without local misrouting (paper's "-L" ablation)
};

/// Escape-subnetwork implementation (paper §IV-C / §VII).
enum class RingKind {
  kNone,      ///< no escape network (only safe for VC-ordered mechanisms)
  kPhysical,  ///< dedicated Hamiltonian ring: 2 extra ports + wires per router
  kEmbedded,  ///< extra escape VC on the links the Hamiltonian ring traverses
};

const char* to_string(RoutingKind kind) noexcept;
const char* to_string(RingKind kind) noexcept;
bool parse_routing_kind(const std::string& text, RoutingKind& out) noexcept;
bool parse_ring_kind(const std::string& text, RingKind& out) noexcept;

/// OFAR misroute-threshold policy (paper §IV-B).
///
/// Misrouting is considered only when the minimal output is unavailable and
/// its occupancy fraction Q_min >= th_min. A non-minimal output with occupancy
/// Q is then an eligible candidate iff Q <= Th_nonmin, where
///   Th_nonmin = nonmin_factor * Q_min   (variable policy, paper default), or
///   Th_nonmin = th_nonmin_static        (static policy).
struct MisrouteThresholds {
  bool variable = true;
  double th_min = 0.0;              ///< minimal-queue occupancy gate, [0,1]
  double nonmin_factor = 0.9;       ///< paper §V: Th_nonmin = 0.9 * Q_min
  double th_nonmin_static = 0.4;    ///< used when variable == false
  /// Absolute occupancy gap Q_min - Q_cand additionally required of a
  /// candidate. This is the stabiliser the relative threshold needs: under
  /// uniform overload every queue equalises (gap ~ 0, so deflections stop
  /// feeding on themselves), while under adversarial patterns the hot
  /// minimal port is full and alternatives near-empty (gap ~ 1, misroute
  /// fires). Chosen empirically, mirroring the paper's own empirical
  /// threshold selection (§V).
  double min_gap = 0.15;
};

/// Full simulator configuration. Defaults reproduce the paper's §V setup
/// except for the network size knob `h` (paper: 6), which callers set
/// explicitly because it dominates simulation cost.
struct SimConfig {
  // ---- topology ----
  u32 h = 4;            ///< global links per router; p = h, a = 2h
  u32 groups = 0;       ///< number of groups; 0 selects the maximum, a*h + 1

  // ---- router microarchitecture (paper §V) ----
  u32 packet_size = 8;        ///< phits per packet
  u32 local_latency = 10;     ///< cycles of wire delay, local links
  u32 global_latency = 100;   ///< cycles of wire delay, global links
  u32 fifo_local = 32;        ///< phits per local-input VC FIFO
  u32 fifo_global = 256;      ///< phits per global-input VC FIFO
  u32 fifo_injection = 32;    ///< phits per injection VC FIFO
  u32 vcs_local = 3;
  u32 vcs_global = 2;
  u32 vcs_injection = 3;
  u32 allocator_iterations = 3;  ///< iterative separable batch allocator

  // ---- routing ----
  RoutingKind routing = RoutingKind::kOfar;
  RingKind ring = RingKind::kPhysical;
  MisrouteThresholds thresholds{};
  u32 max_ring_exits = 4;  ///< livelock guard: times a packet may leave ring
  /// Group stride of the Hamiltonian escape ring (paper §VII reliability
  /// discussion: several rings with distinct strides use distinct global
  /// links). Must be coprime with the group count; stride 1 is the
  /// paper's ring.
  u32 ring_stride = 1;

  // ---- Piggybacking / UGAL parameters ----
  double pb_saturation_threshold = 0.35;  ///< global channel "saturated" if
                                          ///< occupancy fraction exceeds this
  u32 pb_broadcast_delay = 10;   ///< cycles before group-mates see a flag
  i32 ugal_bias_phits = 4;       ///< T in: q_min*H_min <= q_val*H_val + T

  // ---- congestion management (extension; paper §VII future work) ----
  /// When enabled, every router monitors its own total input-buffer
  /// occupancy and pauses the injection of its attached nodes while it is
  /// congested (hysteresis: pause above `on`, resume below `off`). This is
  /// the simplest member of the family the paper defers to future work; it
  /// prevents the network-wide buffer pinning that lets sustained deep
  /// overload collapse onto the escape ring (see the fig9 and
  /// ablation_congestion presets in bench/presets.cpp).
  bool congestion_throttle = false;
  double throttle_on = 0.60;   ///< pause injection above this occupancy
  double throttle_off = 0.45;  ///< resume injection below this occupancy

  // ---- sharded cycle kernel (DESIGN.md §10) ----
  /// Number of contiguous router shards the cycle kernel is partitioned
  /// into. This is a SEMANTIC knob, not an execution knob: per-seed results
  /// are bit-identical across any worker-thread count but differ between
  /// values of K (policy RNGs draw from per-shard lanes). It therefore
  /// participates in experiment content keys. Clamped to the router count
  /// at construction.
  u32 sim_shards = 1;

  /// Align shard boundaries to group multiples (group-major partitioning):
  /// a shard's working set becomes a whole number of groups' cache
  /// footprint. SEMANTIC for the same reason as sim_shards — it moves
  /// routers between shard lanes, so K > 1 digests differ from the default
  /// contiguous split. Participates in experiment content keys.
  bool shard_group_major = false;

  // ---- bookkeeping ----
  u64 seed = 1;
  u32 deadlock_timeout = 200'000;  ///< watchdog: max cycles a head may stall

  /// Processing nodes per router (balanced dragonfly: p == h).
  u32 p() const noexcept { return h; }
  /// Routers per group (balanced dragonfly: a == 2h).
  u32 a() const noexcept { return 2 * h; }
  /// Number of groups actually built.
  u32 num_groups() const noexcept { return groups != 0 ? groups : a() * h + 1; }

  /// True when this mechanism needs the hop-ordered VC discipline for
  /// deadlock freedom (everything except OFAR, which uses the escape ring).
  bool vc_ordered() const noexcept {
    return routing != RoutingKind::kOfar && routing != RoutingKind::kOfarL;
  }

  /// Validates mutual consistency; returns an error message or empty string.
  std::string validate() const;

  /// One-line human-readable summary.
  std::string summary() const;
};

/// The paper's escape ring for a mechanism (§V): none for the VC-ordered
/// mechanisms, which need no escape network, and the physical ring for
/// OFAR and OFAR-L.
inline RingKind default_ring(RoutingKind routing) noexcept {
  return routing == RoutingKind::kOfar || routing == RoutingKind::kOfarL
             ? RingKind::kPhysical
             : RingKind::kNone;
}

// The one declaration of every persisted configuration field. Each call
// f(json_key, tag, member) names a field by its spec JSON key and by its
// tag in the canonical text behind content keys and checkpoint signatures
// (core/spec.cpp), in canonical order. Spec parsing, the canonical text and
// the config signature all walk this list, so a field cannot reach one of
// them and miss another. The thresholds are a nested group: f receives the
// MisrouteThresholds member and walks it with the same function.

template <typename Thresholds, typename F>
  requires std::same_as<std::remove_const_t<Thresholds>, MisrouteThresholds>
void visit_fields(Thresholds& t, F&& f) {
  f("variable", "var", t.variable);
  f("th_min", "min", t.th_min);
  f("nonmin_factor", "nmf", t.nonmin_factor);
  f("th_nonmin_static", "nms", t.th_nonmin_static);
  f("min_gap", "gap", t.min_gap);
}

/// `h` has no JSON key (a spec sets it once, at its top level), and `seed`
/// is not listed: canonical texts place it outside the config, and specs
/// set it per point.
template <typename Config, typename F>
  requires std::same_as<std::remove_const_t<Config>, SimConfig>
void visit_fields(Config& c, F&& f) {
  f(nullptr, "h", c.h);
  f("groups", "groups", c.groups);
  f("packet_size", "ps", c.packet_size);
  f("local_latency", "ll", c.local_latency);
  f("global_latency", "gl", c.global_latency);
  f("fifo_local", "fl", c.fifo_local);
  f("fifo_global", "fg", c.fifo_global);
  f("fifo_injection", "fi", c.fifo_injection);
  f("vcs_local", "vl", c.vcs_local);
  f("vcs_global", "vg", c.vcs_global);
  f("vcs_injection", "vi", c.vcs_injection);
  f("allocator_iterations", "ai", c.allocator_iterations);
  f("routing", "routing", c.routing);
  f("ring", "ring", c.ring);
  f("thresholds", "thr", c.thresholds);
  f("max_ring_exits", "mre", c.max_ring_exits);
  f("ring_stride", "rs", c.ring_stride);
  f("pb_saturation_threshold", "pbs", c.pb_saturation_threshold);
  f("pb_broadcast_delay", "pbd", c.pb_broadcast_delay);
  f("ugal_bias_phits", "ub", c.ugal_bias_phits);
  f("congestion_throttle", "ct", c.congestion_throttle);
  f("throttle_on", "on", c.throttle_on);
  f("throttle_off", "off", c.throttle_off);
  f("deadlock_timeout", "dt", c.deadlock_timeout);
  f("sim_shards", "shards", c.sim_shards);
  f("shard_group_major", "sgm", c.shard_group_major);
}

}  // namespace ofar
