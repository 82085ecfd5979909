// PacketTracer: the tracing subsystem's event consumer (DESIGN.md §11).
//
// Installed by Network::enable_tracing as the TraceEvent callback, it
// assembles the sampled packets' per-hop journeys, feeds the bounded
// flight recorder, and writes the exporters:
//
//  - cfg.out_path: Chrome trace-event JSON — one Perfetto process per
//    packet, one thread per visited router, spans carrying the
//    routing-decision provenance (perfetto.hpp) — on finish() (or
//    destruction);
//  - on_audit_failure / on_deadlock: flight-recorder JSON post-mortems.
//
// Exact per-link utilisation is telemetry's job (the `links` records of
// TelemetryConfig::full_dump), not the tracer's.
//
// The tracer is strictly read-only instrumentation fed by a
// deterministically ordered event stream (shard-staged commits), so its
// outputs are bit-identical at any sim_threads.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/phase.hpp"
#include "common/thread_annotations.hpp"
#include "sim/network.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/trace.hpp"

namespace ofar::trace {

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

  /// Writes the configured exporters once (idempotent; also run by the
  /// destructor). Safe to call mid-run for a snapshot of completed work.
  void finish();

  /// Flight-recorder post-mortems. `context_json` is embedded verbatim.
  void on_audit_failure(Cycle now, const std::string& report_json);
  /// Deadlock forensics hook (at most verify::kMaxForensicDumps per run).
  void on_deadlock(Cycle now, u64 stalled, u64 worst_wait);

  const TracerConfig& config() const noexcept { return cfg_; }
  u64 events_seen() const noexcept { return events_; }
  u64 journeys_completed() const noexcept { return completed_; }
  const FlightRecorder* recorder() const noexcept { return recorder_.get(); }

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
  std::string flight_dump_path(const char* suffix) const;

  const Network& net_;
  TracerConfig cfg_;
  u64 events_ = 0;
  u64 completed_ = 0;
  std::map<u64, Journey> open_;   ///< seq -> in-flight journey (ordered)
  std::vector<Journey> done_;     ///< completed journeys, delivery order
  std::unique_ptr<FlightRecorder> recorder_;
  u32 forensic_dumps_ = 0;
  bool finished_ = false;
};

}  // namespace ofar::trace
