// Network instrumentation: packet/phit counters, the latency accumulator
// and histogram, misroute and escape-ring usage counters, the deadlock
// watchdog tally, and an optional transient time series. A measurement
// window can be (re)opened after warm-up; all rate-style queries refer to
// the current window.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>

#include "common/phase.hpp"
#include "common/types.hpp"
#include "stats/timeseries.hpp"

namespace ofar {

class CheckpointIO;

struct LatencyAccum {
  u64 count = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  u64 min = std::numeric_limits<u64>::max();
  u64 max = 0;

  void add(u64 v) {
    ++count;
    sum += static_cast<double>(v);
    sum_sq += static_cast<double>(v) * static_cast<double>(v);
    min = std::min(min, v);
    max = std::max(max, v);
  }
  double mean() const { return count == 0 ? 0.0 : sum / count; }
  double stddev() const {
    if (count < 2) return 0.0;
    const double m = mean();
    return std::sqrt(std::max(0.0, sum_sq / count - m * m));
  }
};

/// Power-of-two-bucketed latency histogram with approximate percentile
/// queries — constant memory regardless of run length, ~±25 % relative
/// resolution per bucket (each bucket spans [2^k, 2^(k+1))).
class LatencyHistogram {
 public:
  static constexpr u32 kBuckets = 40;

  void add(u64 v) {
    ++total_;
    u32 b = bucket_of(v);
    if (b >= kBuckets) {
      b = kBuckets - 1;  // clamp outliers into the top bucket
      ++overflow_;
    }
    ++buckets_[b];
  }

  u64 total() const noexcept { return total_; }
  u64 bucket_count(u32 b) const { return buckets_[b]; }
  /// Samples clamped into the top bucket because they exceeded its floor
  /// (2^38 cycles): a saturated run is visible instead of silently folded in.
  u64 overflow_count() const noexcept { return overflow_; }

  /// Lower edge of bucket b (0, 1, 2, 4, 8, ...).
  static u64 bucket_floor(u32 b) noexcept {
    return b == 0 ? 0 : u64{1} << (b - 1);
  }

  /// Approximate q-quantile (q in [0,1]): the geometric midpoint of the
  /// bucket containing the q-th sample. The top bucket is a clamp bucket
  /// (it also holds every overflow sample), so its midpoint would be a
  /// fabrication — report its floor instead, a true lower bound. Returns 0
  /// on an empty histogram.
  u64 percentile(double q) const {
    if (total_ == 0) return 0;
    const u64 rank = static_cast<u64>(q * static_cast<double>(total_ - 1));
    u64 seen = 0;
    for (u32 b = 0; b < kBuckets; ++b) {
      seen += buckets_[b];
      if (seen > rank) {
        const u64 lo = bucket_floor(b);
        if (b + 1 == kBuckets) return lo;  // clamp bucket: lower bound
        return (lo + bucket_floor(b + 1)) / 2;
      }
    }
    return bucket_floor(kBuckets - 1);
  }

 private:
  friend class CheckpointIO;

  /// Unclamped bucket index; add() clamps and counts the overflow.
  static u32 bucket_of(u64 v) noexcept {
    if (v == 0) return 0;
    return 64 - static_cast<u32>(__builtin_clzll(v));
  }

  u64 total_ = 0;
  u64 overflow_ = 0;
  std::array<u64, kBuckets> buckets_{};
};

// Serial-only as a whole: every on_* hook mutates shared accumulators, so
// parallel phases stage their counts in ShardState and the serial commit
// replays them in shard order (DESIGN.md §10).
class OFAR_SERIAL_ONLY Stats {
 public:
  Stats() = default;

  /// Opens a fresh measurement window at `now` (counters zeroed).
  void reset(Cycle now);

  // ---- event hooks (called by Network) ----
  void on_generated(u32 phits) {
    ++generated_packets_;
    generated_phits_ += phits;
  }
  void on_injected() { ++injected_packets_; }
  void on_delivered(u32 phits, u64 latency, Cycle birth, u32 hops);

  // ---- bulk hooks (sharded kernel's serial commit; DESIGN.md §10) ----
  // Per-shard staged counts folded in shard order. A packet granted onto
  // the escape ring is a first entry when it had never been on the ring
  // before (Packet::ring_entered), a re-entry otherwise: ring_entries()
  // counts both, ring_packets() the first entries (distinct packets), and
  // ring_reentries() the rest.
  void on_ring_enters(u64 first_entries, u64 reentries) {
    ring_entries_ += first_entries + reentries;
    ring_packets_ += first_entries;
    ring_reentries_ += reentries;
  }
  void on_ring_exits(u64 n) { ring_exits_ += n; }
  void on_local_misroutes(u64 n) { local_misroutes_ += n; }
  void on_global_misroutes(u64 n) { global_misroutes_ += n; }

  void on_watchdog(u64 stalled, u64 worst_stall) {
    stalled_packets_ = stalled;
    worst_stall_ = std::max(worst_stall_, worst_stall);
  }

  /// Enables the by-birth-cycle latency series (Fig. 6 instrumentation).
  void enable_timeseries(Cycle start, Cycle horizon, u32 bucket_width) {
    series_ = std::make_unique<TimeSeries>(start, horizon, bucket_width);
  }
  const TimeSeries* series() const { return series_.get(); }

  // ---- queries ----
  Cycle window_start() const { return window_start_; }
  u64 generated_packets() const { return generated_packets_; }
  u64 generated_phits() const { return generated_phits_; }
  u64 injected_packets() const { return injected_packets_; }
  u64 delivered_packets() const { return delivered_packets_; }
  u64 delivered_phits() const { return delivered_phits_; }
  u64 local_misroutes() const { return local_misroutes_; }
  u64 global_misroutes() const { return global_misroutes_; }
  u64 ring_entries() const { return ring_entries_; }
  u64 ring_exits() const { return ring_exits_; }
  u64 ring_packets() const { return ring_packets_; }
  u64 ring_reentries() const { return ring_reentries_; }
  u64 stalled_packets() const { return stalled_packets_; }
  u64 worst_stall() const { return worst_stall_; }
  u64 max_hops() const { return max_hops_; }
  double mean_hops() const {
    return delivered_packets_ == 0 ? 0.0 : hops_sum_ / delivered_packets_;
  }

  const LatencyAccum& latency() const { return latency_; }
  const LatencyHistogram& latency_histogram() const { return histogram_; }

  /// Accepted load in phits/(node*cycle) over the window ending at `now`.
  double accepted_load(Cycle now, u32 nodes) const {
    if (now <= window_start_ || nodes == 0) return 0.0;
    return static_cast<double>(delivered_phits_) /
           (static_cast<double>(nodes) *
            static_cast<double>(now - window_start_));
  }
  /// Offered load in phits/(node*cycle) over the window ending at `now`.
  double offered_load(Cycle now, u32 nodes) const {
    if (now <= window_start_ || nodes == 0) return 0.0;
    return static_cast<double>(generated_phits_) /
           (static_cast<double>(nodes) *
            static_cast<double>(now - window_start_));
  }
  /// Fraction of delivered packets that ever used the escape ring. Counts
  /// distinct packets (ring_packets_), not raw entries — a packet that
  /// bounces on and off the ring contributes once, so the fraction cannot
  /// exceed 1.0; re-entries are reported separately via ring_reentries().
  double ring_use_fraction() const {
    return delivered_packets_ == 0
               ? 0.0
               : static_cast<double>(ring_packets_) / delivered_packets_;
  }

 private:
  friend class CheckpointIO;  // serializes the whole window state

  Cycle window_start_ = 0;
  u64 generated_packets_ = 0;
  u64 generated_phits_ = 0;
  u64 injected_packets_ = 0;
  u64 delivered_packets_ = 0;
  u64 delivered_phits_ = 0;
  u64 local_misroutes_ = 0;
  u64 global_misroutes_ = 0;
  u64 ring_entries_ = 0;
  u64 ring_exits_ = 0;
  u64 ring_packets_ = 0;
  u64 ring_reentries_ = 0;
  u64 stalled_packets_ = 0;
  u64 worst_stall_ = 0;
  u64 max_hops_ = 0;
  double hops_sum_ = 0.0;
  LatencyAccum latency_{};
  LatencyHistogram histogram_{};
  std::unique_ptr<TimeSeries> series_;
};

}  // namespace ofar
