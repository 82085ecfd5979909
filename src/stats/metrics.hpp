// Opt-in telemetry layer: the interval metrics (counters and gauges of the
// network, sampled on a fixed cycle interval), a wall-clock profiler of the
// Network::step phases, and structured deadlock forensics — all streamed
// through a MetricsSink (see sink.hpp) as JSONL records.
//
// Contract with the cycle kernel (see DESIGN.md "Observability"):
//
//  - Strictly opt-in, and one kernel. Network::step() is the same code
//    with telemetry on or off: each observation site (a phase boundary,
//    a stall hook, the post-cycle sampler) is a null-pointer test, and
//    without enable_telemetry() no telemetry allocation exists.
//  - Read-only with respect to the simulation. Telemetry never draws from
//    the Network's RNG, never mutates router/packet/channel state, and the
//    per-seed stat digests (tests/test_determinism.cpp) are bit-identical
//    with telemetry enabled or disabled.
//  - Bounded overhead. Interval sampling is O(network) once per
//    `interval` cycles; the phase profiler reads the clock only on every
//    `phase_sample_period`-th cycle (counts stay exact, accumulated wall
//    time is a uniform sample); per-cycle stall accounting is a counter
//    increment per blocked head.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/phase.hpp"
#include "common/types.hpp"
#include "verify/wait_graph.hpp"

namespace ofar {

class Network;
class MetricsSink;

// ---------------------------------------------------------------------------
// Kernel phase profiler
// ---------------------------------------------------------------------------

/// The phases of Network::step, in execution order.
enum class SimPhase : u8 {
  kEventDelivery,        ///< shard phase: phit/credit wheel delivery
  kDeliveryCommit,       ///< serial: staged packet deliveries
  kPolicyTick,           ///< routing-policy per-cycle hook (PB broadcast)
  kTransfersAllocation,  ///< shard phase: crossbar streaming, worklist
                         ///< prune, routing decisions + allocation
  kStagingCommit,        ///< serial: staged traces and stat counts
  kInjection,            ///< traffic tick + pending-queue drain
  kWatchdog,             ///< periodic deadlock scan
};
inline constexpr u32 kNumSimPhases = 7;

const char* to_string(SimPhase p) noexcept;

/// Accumulates wall-clock time per kernel phase on a sampling basis: every
/// `sample_period`-th cycle is fully timed (one clock read at its start and
/// one per phase boundary), all others only bump the cycle counter.
/// Invocation counts are exact; accumulated seconds cover only the sampled
/// cycles, and estimated_total_seconds() scales them by the sampling
/// ratio. sample_period == 1 times every cycle;
/// sample_period == 0 disables timing entirely (counts remain).
class PhaseProfiler {
 public:
  explicit PhaseProfiler(u32 sample_period) : period_(sample_period) {}

  // ---- hot-path hooks (called by Network::step at its phase boundaries) ----
  // A countdown (not `cycle % period`) selects the sampled cycles: the
  // integer divide would cost more than the rest of the disabled-phase
  // bookkeeping combined.
  void start_cycle(Cycle) {
    if (countdown_ != 0 || period_ == 0) {
      timing_ = false;
      countdown_ -= countdown_ != 0 ? 1 : 0;
      return;
    }
    timing_ = true;
    countdown_ = period_ - 1;
    ++sampled_cycles_;
    last_ = clock_ns();
  }
  void phase_done(SimPhase p) {
    if (!timing_) return;
    const u64 t = clock_ns();
    ns_[static_cast<u32>(p)] += t - last_;
    last_ = t;
    if (p == SimPhase::kWatchdog) ++sampled_watchdog_runs_;
  }
  void end_cycle(bool watchdog_ran) {
    ++cycles_;
    watchdog_runs_ += watchdog_ran ? 1 : 0;
  }

  // ---- queries ----
  u64 cycles() const noexcept { return cycles_; }
  u64 sampled_cycles() const noexcept { return sampled_cycles_; }
  u64 invocations(SimPhase p) const noexcept {
    return p == SimPhase::kWatchdog ? watchdog_runs_ : cycles_;
  }
  u64 sampled_invocations(SimPhase p) const noexcept {
    return p == SimPhase::kWatchdog ? sampled_watchdog_runs_
                                    : sampled_cycles_;
  }
  /// Wall-clock seconds accumulated over the *sampled* cycles.
  double seconds(SimPhase p) const noexcept {
    return static_cast<double>(ns_[static_cast<u32>(p)]) * 1e-9;
  }
  /// seconds() scaled to all invocations (the sampling estimate).
  double estimated_total_seconds(SimPhase p) const noexcept {
    const u64 sampled = sampled_invocations(p);
    if (sampled == 0) return 0.0;
    return seconds(p) * static_cast<double>(invocations(p)) /
           static_cast<double>(sampled);
  }
  u32 sample_period() const noexcept { return period_; }

 private:
  static u64 clock_ns() noexcept {
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  u32 period_;
  u32 countdown_ = 0;  ///< cycles until the next timed cycle
  bool timing_ = false;
  u64 last_ = 0;
  u64 cycles_ = 0;
  u64 sampled_cycles_ = 0;
  u64 watchdog_runs_ = 0;
  u64 sampled_watchdog_runs_ = 0;
  u64 ns_[kNumSimPhases] = {};
};

// ---------------------------------------------------------------------------
// Telemetry: the per-Network orchestrator
// ---------------------------------------------------------------------------

/// The metrics of one interval record as of the last sample, held as the
/// doubles the record prints. interval_fields() in metrics.cpp names each
/// one and fixes the record's order; DESIGN.md §7 gives their units.
struct IntervalMetrics {
  double cycle = 0, interval_cycles = 0;
  double live = 0, pending_offers = 0, generated = 0, delivered = 0;
  double latency_mean = 0;
  double util_local = 0, util_global = 0, util_ring = 0, util_max = 0;
  double vc_occupancy_mean = 0, vc_occupancy_max = 0;
  double ring_occupancy = 0, ring_entries = 0, ring_reentries = 0;
  double misroute_local = 0, misroute_global = 0;
  double stall_credit_cycles = 0, stall_alloc_cycles = 0;
  double worklist_routers = 0, worklist_nodes = 0, throttled_routers = 0;
  double watchdog_stalled = 0, watchdog_worst_stall = 0;
  double phase_seconds[kNumSimPhases] = {};
  double phase_invocations[kNumSimPhases] = {};
};

struct TelemetryConfig {
  /// Destination for interval/summary/forensics records. Not owned; must
  /// outlive the Network when set (the destructor's summary safety net
  /// writes through it). May be null, in which case metrics are still
  /// sampled (Telemetry::last_sample; tests, in-memory consumers) but
  /// nothing is written.
  MetricsSink* sink = nullptr;
  /// Cycles between interval snapshots.
  Cycle interval = 1'000;
  /// Run identifier stamped on every record (sweeps share one sink).
  std::string label;
  /// Also emit per-channel link utilisation and per-VC occupancy/stall
  /// records every interval (large output; off by default).
  bool full_dump = false;
  /// Phase-profiler sampling period (1 = time every cycle, 0 = counts only).
  /// At 64 the amortised clock cost is a few ns/cycle, invisible even on
  /// mostly-idle drain workloads where cycles themselves are ~100 ns.
  u32 phase_sample_period = 64;
};

class Telemetry {
 public:
  /// Sizes the per-router/per-VC accumulators against `net`'s built
  /// structure and records the enable cycle as the first interval start.
  /// `net` must outlive this object (Network owns its Telemetry).
  Telemetry(const Network& net, TelemetryConfig cfg);
  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  const TelemetryConfig& config() const noexcept { return cfg_; }
  /// The metrics of the most recent interval sample.
  const IntervalMetrics& last_sample() const noexcept { return last_; }
  PhaseProfiler& profiler() noexcept { return prof_; }
  const PhaseProfiler& profiler() const noexcept { return prof_; }

  // ---- hot-path hooks (only reached when telemetry is enabled) ----
  // Both hooks may be called concurrently from the sharded kernel's
  // parallel allocation phase, so they only touch the per-(router,port,VC)
  // slot — disjoint across shards because a router belongs to exactly one.
  // The run totals are derived by summation in credit/alloc_stall_cycles()
  // instead of a shared counter, which would race.
  /// A routable head at (r, p, v) produced no grantable route this cycle
  /// (minimal and every eligible non-minimal output busy or out of
  /// credits): do_allocation notes one per failing route() call.
  OFAR_PARALLEL_PHASE void note_credit_stall(RouterId r, PortId p, VcId v) {
    ++vc_credit_stall_[vc_index(r, p, v)];
  }
  /// A head requested an output but lost separable allocation this cycle.
  OFAR_PARALLEL_PHASE void note_alloc_stall(RouterId r, PortId p, VcId v) {
    ++vc_alloc_stall_[vc_index(r, p, v)];
  }

  /// Samples the metrics (and emits an interval record) when `now` crosses
  /// the interval boundary. Called once per cycle after all phases ran.
  OFAR_SERIAL_ONLY void maybe_sample(const Network& net, Cycle now) {
    if (now != next_sample_) return;
    next_sample_ += cfg_.interval;
    sample(net, now);
  }

  /// Unconditional snapshot at cycle `now`: refreshes every metric from
  /// the network state and streams an interval record to the sink.
  OFAR_SERIAL_ONLY void sample(const Network& net, Cycle now);

  /// Deadlock forensics: called by the watchdog when at least one packet
  /// exceeded the deadlock timeout. Emits the hold/wait chain of the wait
  /// graph's stalled heads (verify::stalled_heads): where each head sits
  /// (router, port, VC), how old it is, and which output it structurally
  /// waits on — computed from the topology only, so no RNG is consumed.
  /// At most verify::kMaxForensicDumps dumps per run, each listing at most
  /// verify::kMaxForensicEdges heads.
  OFAR_SERIAL_ONLY void on_watchdog_trip(const Network& net, u64 stalled,
                                         u64 worst_stall);

  /// Streams the run-end summary record (stats digest, phase profile, stall
  /// totals and the hottest routers). Idempotent; also invoked from the
  /// destructor as a safety net when a driver forgets.
  OFAR_SERIAL_ONLY void write_summary(const Network& net);

  // ---- in-memory queries (tests, drivers) ----
  // Totals are summed on demand (sample-rate paths only, never per cycle);
  // see the note on note_credit_stall above.
  u64 credit_stall_cycles() const noexcept {
    u64 total = 0;
    for (const u64 n : vc_credit_stall_) total += n;
    return total;
  }
  u64 alloc_stall_cycles() const noexcept {
    u64 total = 0;
    for (const u64 n : vc_alloc_stall_) total += n;
    return total;
  }
  u64 samples_taken() const noexcept { return samples_; }
  u64 forensic_dumps() const noexcept { return forensic_dumps_; }
  /// Edges of the most recent forensics dump (empty before the first trip).
  const std::vector<verify::StallEdge>& last_forensics() const noexcept {
    return last_edges_;
  }

 private:
  u32 vc_index(RouterId r, PortId p, VcId v) const noexcept {
    OFAR_DCHECK(static_cast<std::size_t>(r) * ports_ + p + 1 <
                vc_base_.size());
    return vc_base_[static_cast<std::size_t>(r) * ports_ + p] + v;
  }
  /// The O(network) part of a sample: link utilisation, VC occupancy,
  /// throttle latches and ring occupancy, with the hottest entities.
  void scan(const Network& net, Cycle width);
  void emit_interval(const Network& net, Cycle now, Cycle width);
  void emit_full_dump(const Network& net, Cycle now, Cycle width);
  void emit_forensics(Cycle now, u64 stalled, u64 worst_stall,
                      u64 total_edges);

  TelemetryConfig cfg_;
  const Network* net_;  ///< for the destructor's summary safety net
  PhaseProfiler prof_;
  IntervalMetrics last_;

  // ---- structure-indexed accumulators ----
  u32 ports_ = 0;                 ///< ports per router (uniform)
  std::vector<u32> vc_base_;      ///< (router*ports_ + port) -> flat VC base
  // Shard-local: the stall hooks write only the slot of a (router,port,VC)
  // the calling shard owns.
  OFAR_SHARD_LOCAL std::vector<u64> vc_credit_stall_;  ///< head-cycles blocked
  OFAR_SHARD_LOCAL std::vector<u64> vc_alloc_stall_;   ///< grants lost
  std::vector<u64> prev_phits_;   ///< per channel, channel_phits at last sample
  std::vector<u64> delta_scratch_;  ///< per channel, phits this interval

  Cycle next_sample_ = 0;
  Cycle last_sample_cycle_ = 0;
  u64 samples_ = 0;
  bool prev_sample_idle_ = false;   ///< live==0 && pending==0 at last sample
  u64 prev_sample_generated_ = 0;   ///< generated_packets() at last sample
  u32 forensic_dumps_ = 0;
  std::vector<verify::StallEdge> last_edges_;
  bool summary_written_ = false;

  // Hottest entities of the last sample (emitted inline with the record).
  struct Hot {
    ChannelId channel = kInvalidChannel;
    double link_util = 0.0;
    RouterId vc_router = 0;
    PortId vc_port = 0;
    VcId vc_vc = 0;
    double vc_occ = 0.0;
  } hot_;
};

}  // namespace ofar
