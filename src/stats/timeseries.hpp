// Bucketed time series: mean of a value keyed by the cycle an event is
// attributed to. Used for the paper's transient experiments (Fig. 6), where
// the latency of each delivered packet is accounted to the cycle the packet
// was *sent* (generated), not the cycle it arrived.
#pragma once

#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace ofar {

class CheckpointIO;

class TimeSeries {
 public:
  TimeSeries() = default;

  /// Buckets cover [start, start + horizon); events outside are dropped.
  TimeSeries(Cycle start, Cycle horizon, u32 bucket_width)
      : start_(start), bucket_width_(bucket_width),
        buckets_((horizon + bucket_width - 1) / bucket_width) {
    OFAR_CHECK(bucket_width > 0);
  }

  struct Bucket {
    double sum = 0.0;
    u64 count = 0;
    double mean() const { return count == 0 ? 0.0 : sum / count; }
  };

  /// Adds `value` to the bucket covering cycle `at`; defined in
  /// timeseries.cpp, where GCC 12 raises no spurious -Warray-bounds on
  /// constant-folded out-of-window cycles in test code.
  void record(Cycle at, double value);

  std::size_t num_buckets() const noexcept { return buckets_.size(); }
  const Bucket& bucket(std::size_t i) const { return buckets_[i]; }
  /// Cycle at the centre of bucket i.
  Cycle bucket_mid(std::size_t i) const {
    return start_ + i * bucket_width_ + bucket_width_ / 2;
  }
  u32 bucket_width() const noexcept { return bucket_width_; }

 private:
  friend class CheckpointIO;  // serializes start_/bucket_width_/buckets_

  Cycle start_ = 0;
  u32 bucket_width_ = 1;
  std::vector<Bucket> buckets_;
};

}  // namespace ofar
