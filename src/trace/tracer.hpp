// PacketTracer: the tracing subsystem's event consumer (DESIGN.md §11).
//
// Installed by Network::enable_tracing as the TraceEvent callback, it
// assembles the sampled packets' per-hop journeys and writes them to
// cfg.out_path as Chrome trace-event JSON — one Perfetto process per
// packet, one thread per visited router, spans carrying the
// routing-decision provenance (perfetto.hpp) — on finish(): at
// destruction, or before an invariant audit aborts the run, so a failed
// run keeps the journey of every sampled packet, the ones still in flight
// included. The journeys are the post-mortem.
//
// Exact per-link utilisation is telemetry's job (the `links` records of
// TelemetryConfig::full_dump), not the tracer's.
//
// The tracer is strictly read-only instrumentation fed by a
// deterministically ordered event stream (shard-staged commits), so its
// outputs are bit-identical at any sim_threads.
#pragma once

#include <map>
#include <vector>

#include "common/phase.hpp"
#include "common/thread_annotations.hpp"
#include "sim/network.hpp"
#include "trace/trace.hpp"

namespace ofar {
class JsonWriter;
}  // namespace ofar

namespace ofar::trace {

/// Renders one TraceEvent as a JSON object into `w`: the args of the hop
/// spans and instants the tracer writes (tools/trace_summary.py --check
/// reads their keys).
void append_event_json(JsonWriter& w, const TraceEvent& ev);

// Serial-only as a whole: the tracer mutates per-packet journey state on
// every event, so the sharded kernel stages TraceEvents in ShardState and
// flushes them here from the serial commit, in shard-ascending order
// (DESIGN.md §11).
class OFAR_SERIAL_ONLY PacketTracer {
 public:
  PacketTracer(const Network& net, TracerConfig cfg);
  ~PacketTracer();  // finish() safety net
  PacketTracer(const PacketTracer&) = delete;
  PacketTracer& operator=(const PacketTracer&) = delete;

  void on_event(const TraceEvent& ev) OFAR_REQUIRES_SERIAL;

  /// Writes the journeys once (idempotent; also run by the destructor and
  /// before an audit abort): the completed ones, then those in flight.
  void finish();

  const TracerConfig& config() const noexcept { return cfg_; }
  u64 events_seen() const noexcept { return events_; }
  u64 journeys_completed() const noexcept { return completed_; }

 private:
  /// One sampled packet's event sequence, inject -> deliver.
  struct Journey {
    u64 seq = 0;
    NodeId src = 0;
    NodeId dst = 0;
    Cycle inject = 0;
    bool delivered = false;
    Cycle deliver_cycle = 0;
    std::vector<TraceEvent> hops;  ///< kGrant/kRing*/kDeliver, in order
  };

  void export_journeys() const;

  const Network& net_;
  TracerConfig cfg_;
  u64 events_ = 0;
  u64 completed_ = 0;
  std::map<u64, Journey> open_;   ///< seq -> in-flight journey (ordered)
  std::vector<Journey> done_;     ///< completed journeys, delivery order
  bool finished_ = false;
};

}  // namespace ofar::trace
