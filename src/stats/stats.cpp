#include "stats/stats.hpp"

#include <algorithm>

namespace ofar {

void Stats::reset(Cycle now) {
  window_start_ = now;
  generated_packets_ = generated_phits_ = 0;
  injected_packets_ = 0;
  delivered_packets_ = delivered_phits_ = 0;
  local_misroutes_ = global_misroutes_ = 0;
  ring_entries_ = ring_exits_ = 0;
  ring_packets_ = ring_reentries_ = 0;
  stalled_packets_ = worst_stall_ = 0;
  max_hops_ = 0;
  hops_sum_ = 0.0;
  latency_ = LatencyAccum{};
  histogram_ = LatencyHistogram{};
  // The time series deliberately survives reset: transient experiments open
  // a new window mid-run while the series spans the whole experiment.
}

void Stats::on_delivered(u32 phits, u64 latency, Cycle birth, u32 hops) {
  ++delivered_packets_;
  delivered_phits_ += phits;
  max_hops_ = std::max<u64>(max_hops_, hops);
  hops_sum_ += hops;
  latency_.add(latency);
  histogram_.add(latency);
  if (series_) series_->record(birth, static_cast<double>(latency));
}

}  // namespace ofar
