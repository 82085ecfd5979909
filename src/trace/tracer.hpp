// PacketTracer: the tracing subsystem's event consumer (DESIGN.md §11).
//
// Installed by Network::enable_tracing as the TraceEvent callback, it
// assembles the sampled packets' per-hop journeys and writes them to
// cfg.out_path as Chrome trace-event JSON on finish(): at destruction, or
// before an invariant audit aborts the run, so a failed run keeps the
// journey of every sampled packet, the ones still in flight included. The
// journeys are the post-mortem.
//
// The file is the "JSON Object Format" of chrome://tracing and
// https://ui.perfetto.dev: {"traceEvents":[...]} of metadata ("M"),
// complete-span ("X") and instant ("i") events. One sampled packet is one
// Perfetto process (pid = injection sequence number) and each router it
// visits a thread of it, so the UI stacks a packet's journey as per-router
// tracks with the routing-decision provenance in the span args. Cycles are
// written as microseconds (1 cycle == 1 us), so the UI's axis reads in
// cycles.
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
#include "sim/network.hpp"
#include "trace/trace.hpp"

namespace ofar {
class JsonWriter;
}  // namespace ofar

namespace ofar::trace {

/// Renders one TraceEvent as a JSON object into `w`: the args of the hop
/// spans and instants the tracer writes (tools/trace_summary.py --check
/// reads their keys). `kind` replaces the event kind's name in the "kind"
/// member (a ring instant names its grant's condition).
void append_event_json(JsonWriter& w, const TraceEvent& ev,
                       const char* kind = nullptr);

// Serial-only as a whole: the tracer mutates per-packet journey state on
// every event, so the sharded kernel stages TraceEvents in ShardState and
// flushes them here from the serial commit, in shard-ascending order
// (DESIGN.md §11); ofar_lint's serial-call rule rejects any call into it
// from a parallel phase.
class OFAR_SERIAL_ONLY PacketTracer {
 public:
  PacketTracer(const Network& net, TracerConfig cfg);
  ~PacketTracer();  // finish() safety net
  PacketTracer(const PacketTracer&) = delete;
  PacketTracer& operator=(const PacketTracer&) = delete;

  void on_event(const TraceEvent& ev);

  /// Writes the journeys once (idempotent; also run by the destructor and
  /// before an audit abort): the completed ones, then those in flight.
  void finish();

  u64 events_seen() const noexcept { return events_; }
  u64 journeys_completed() const noexcept { return completed_; }

 private:
  /// One sampled packet's event sequence, inject -> deliver.
  struct Journey {
    u64 seq = 0;
    NodeId src = 0;
    NodeId dst = 0;
    bool delivered = false;
    std::vector<TraceEvent> hops;  ///< kGrant/kDeliver, in order
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
