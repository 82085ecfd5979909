#include "trace/tracer.hpp"

#include <algorithm>

#include "stats/sink.hpp"
#include "trace/perfetto.hpp"

namespace ofar::trace {

void append_event_json(JsonWriter& w, const TraceEvent& ev) {
  w.begin_object();
  w.key("kind").value(to_string(ev.kind));
  w.key("seq").value(ev.seq);
  w.key("packet").value(static_cast<u64>(ev.packet));
  w.key("cycle").value(static_cast<u64>(ev.cycle));
  w.key("router").value(static_cast<u64>(ev.router));
  w.key("src").value(static_cast<u64>(ev.src));
  w.key("dst").value(static_cast<u64>(ev.dst));
  if (ev.kind != TraceEvent::Kind::kInject) {
    w.key("out_port").value(static_cast<u64>(ev.out_port));
    w.key("out_vc").value(static_cast<u64>(ev.out_vc));
  }
  if (ev.kind == TraceEvent::Kind::kGrant ||
      ev.kind == TraceEvent::Kind::kRingEnter ||
      ev.kind == TraceEvent::Kind::kRingExit) {
    w.key("in_port").value(static_cast<u64>(ev.in_port));
    w.key("in_vc").value(static_cast<u64>(ev.in_vc));
    w.key("queue_wait").value(static_cast<u64>(ev.queue_wait));
    w.key("ring_move").value(ev.ring_move);
    const char* mis = ev.misroute == MisrouteKind::kLocal    ? "local"
                      : ev.misroute == MisrouteKind::kGlobal ? "global"
                                                             : "none";
    w.key("misroute").value(mis);
    w.key("condition").value(to_string(ev.prov.condition));
    w.key("min_port").value(static_cast<u64>(ev.prov.min_port));
    w.key("q_min").value(static_cast<double>(ev.prov.q_min));
    w.key("threshold").value(static_cast<double>(ev.prov.threshold));
    w.key("chosen_occ").value(static_cast<double>(ev.prov.chosen_occ));
    w.key("candidates").begin_array();
    const u32 n = ev.prov.num_candidates < RouteProvenance::kMaxCandidates
                      ? ev.prov.num_candidates
                      : RouteProvenance::kMaxCandidates;
    for (u32 i = 0; i < n; ++i)
      w.value(static_cast<u64>(ev.prov.candidates[i]));
    w.end_array();
    w.key("num_candidates").value(
        static_cast<u64>(ev.prov.num_candidates));
  }
  w.end_object();
}

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
}

PacketTracer::~PacketTracer() { finish(); }

void PacketTracer::on_event(const TraceEvent& ev) {
  ++events_;

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
