// Packet-journey tracing: shared configuration and deterministic sampling.
//
// The tracing subsystem (DESIGN.md §11) records the full lifecycle of a
// deterministically sampled subset of packets — injection, every allocator
// grant with the routing-decision provenance behind it, escape-ring
// entry/exit, delivery. Everything here is read-only instrumentation:
// enabling a tracer changes no simulation outcome and consumes no
// simulation RNG draws (the sampler hashes the packet sequence number
// instead of drawing).
#pragma once

#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace ofar::trace {

/// Deterministic 1-in-`denom` packet sampler. `seq` is the packet's
/// injection sequence number (assigned in the serial injection phase, so it
/// is identical at any sim_threads); the SplitMix64 finalizer decorrelates
/// the selection from injection order so bursts are sampled fairly.
/// denom <= 1 samples every packet.
inline bool should_sample(u64 seq, u32 denom) noexcept {
  if (denom <= 1) return true;
  return SplitMix64(seq).next() % denom == 0;
}

struct TracerConfig {
  /// Chrome trace-event JSON output path (empty: no journey export).
  std::string out_path;
  /// Sample 1 in `sample` injected packets (deterministic, hash-based).
  u32 sample = 1;
  /// Label stamped into exported metadata (experiment case name).
  std::string label;
};

}  // namespace ofar::trace
