#include "trace/tracer.hpp"

#include <algorithm>

#include "trace/perfetto.hpp"
#include "verify/wait_graph.hpp"

namespace ofar::trace {

namespace {

std::string event_args_json(const TraceEvent& ev) {
  JsonWriter w;
  append_event_json(w, ev);
  return w.str();
}

}  // namespace

PacketTracer::PacketTracer(const Network& net, TracerConfig cfg)
    : net_(net), cfg_(std::move(cfg)) {
  if (cfg_.sample == 0) cfg_.sample = 1;
  if (cfg_.flight_depth > 0)
    recorder_ = std::make_unique<FlightRecorder>(net_.topo().routers(),
                                                 cfg_.flight_depth);
}

PacketTracer::~PacketTracer() { finish(); }

void PacketTracer::on_event(const TraceEvent& ev) {
  ++events_;
  if (recorder_) recorder_->record(ev);

  switch (ev.kind) {
    case TraceEvent::Kind::kInject: {
      Journey& j = open_[ev.seq];
      j.seq = ev.seq;
      j.src = ev.src;
      j.dst = ev.dst;
      j.inject = ev.cycle;
      return;
    }
    case TraceEvent::Kind::kGrant:
    case TraceEvent::Kind::kRingEnter:
    case TraceEvent::Kind::kRingExit:
      break;
    case TraceEvent::Kind::kDeliver: {
      auto it = open_.find(ev.seq);
      if (it == open_.end()) return;
      Journey j = std::move(it->second);
      open_.erase(it);
      j.hops.push_back(ev);
      j.delivered = true;
      j.deliver_cycle = ev.cycle;
      ++completed_;
      if (!cfg_.out_path.empty()) done_.push_back(std::move(j));
      return;
    }
  }

  // Grant-shaped events: append to the packet's journey (created lazily
  // when the tracer was installed after the packet's injection).
  auto it = open_.find(ev.seq);
  if (it == open_.end()) {
    Journey& j = open_[ev.seq];
    j.seq = ev.seq;
    j.src = ev.src;
    j.dst = ev.dst;
    j.inject = ev.cycle;
    j.hops.push_back(ev);
    return;
  }
  it->second.hops.push_back(ev);
}

std::string PacketTracer::flight_dump_path(const char* suffix) const {
  const std::string base =
      cfg_.out_path.empty() ? std::string("ofar_trace") : cfg_.out_path;
  return base + suffix;
}

void PacketTracer::on_audit_failure(Cycle now,
                                    const std::string& report_json) {
  if (!recorder_) return;
  recorder_->dump_json(flight_dump_path(".flight.json"), "audit_failure",
                       now, report_json);
}

void PacketTracer::on_deadlock(Cycle now, u64 stalled, u64 worst_wait) {
  if (!recorder_ || forensic_dumps_ >= verify::kMaxForensicDumps) return;
  ++forensic_dumps_;
  JsonWriter ctx;
  ctx.begin_object();
  ctx.key("stalled_packets").value(stalled);
  ctx.key("worst_wait").value(worst_wait);
  ctx.end_object();
  recorder_->dump_json(
      flight_dump_path(
          (".deadlock" + std::to_string(forensic_dumps_) + ".json").c_str()),
      "deadlock_watchdog", now, ctx.str());
}

void PacketTracer::export_journeys() const {
  ChromeTraceWriter writer(cfg_.label);
  auto emit_journey = [&](const Journey& j) {
    const u64 pid = j.seq;
    std::string pname = "pkt " + std::to_string(j.seq) + " n" +
                        std::to_string(j.src) + "->n" + std::to_string(j.dst);
    if (!j.delivered) pname += " (in flight)";
    writer.process_name(pid, pname);
    std::vector<RouterId> named;
    const Cycle dur = net_.config().packet_size;
    for (const TraceEvent& ev : j.hops) {
      if (std::find(named.begin(), named.end(), ev.router) == named.end()) {
        named.push_back(ev.router);
        writer.thread_name(pid, ev.router,
                           "router " + std::to_string(ev.router));
      }
      switch (ev.kind) {
        case TraceEvent::Kind::kGrant: {
          if (ev.queue_wait > 0)
            writer.complete_event(pid, ev.router, "queued",
                                  ev.cycle - ev.queue_wait, ev.queue_wait,
                                  "");
          writer.complete_event(pid, ev.router, to_string(ev.prov.condition),
                                ev.cycle, dur, event_args_json(ev));
          break;
        }
        case TraceEvent::Kind::kRingEnter:
        case TraceEvent::Kind::kRingExit:
          writer.instant_event(pid, ev.router, to_string(ev.kind), ev.cycle,
                               event_args_json(ev));
          break;
        case TraceEvent::Kind::kDeliver:
          writer.instant_event(pid, ev.router, "deliver", ev.cycle,
                               event_args_json(ev));
          break;
        case TraceEvent::Kind::kInject:
          break;
      }
    }
  };
  for (const Journey& j : done_) emit_journey(j);
  for (const auto& [seq, j] : open_) emit_journey(j);  // still in flight
  writer.write_file(cfg_.out_path);
}

void PacketTracer::finish() {
  if (finished_) return;
  finished_ = true;
  if (!cfg_.out_path.empty()) export_journeys();
}

}  // namespace ofar::trace
