#include "stats/timeseries.hpp"

namespace ofar {

void TimeSeries::record(Cycle at, double value) {
  if (at < start_) return;
  const u64 idx = (at - start_) / bucket_width_;
  if (idx >= buckets_.size()) return;
  Bucket& b = buckets_[idx];
  b.sum += value;
  ++b.count;
}

}  // namespace ofar
