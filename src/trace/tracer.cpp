#include "trace/tracer.hpp"

#include <algorithm>
#include <cstdio>

#include "common/json.hpp"

namespace ofar::trace {

void append_event_json(JsonWriter& w, const TraceEvent& ev,
                       const char* kind) {
  w.begin_object();
  w.key("kind").value(kind != nullptr ? kind : to_string(ev.kind));
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
  if (ev.kind == TraceEvent::Kind::kGrant) {
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

/// Opens a span ("X") or thread-scoped instant ("i") named `name` at cycle
/// `ts` on router `tid`'s track of packet `pid`; the caller adds "dur"
/// and "args" and closes it.
JsonWriter& begin_hop_event(JsonWriter& w, const char* ph, u64 pid, u64 tid,
                            const char* name, Cycle ts) {
  w.begin_object();
  w.key("ph").value(ph);
  if (ph[0] == 'i') w.key("s").value("t");
  w.key("cat").value("pkt");
  w.key("pid").value(pid);
  w.key("tid").value(tid);
  w.key("name").value(name);
  return w.key("ts").value(ts);
}

}  // namespace

PacketTracer::PacketTracer(const Network& net, TracerConfig cfg)
    : net_(net), cfg_(std::move(cfg)) {}

PacketTracer::~PacketTracer() { finish(); }

void PacketTracer::on_event(const TraceEvent& ev) {
  ++events_;
  if (ev.kind == TraceEvent::Kind::kDeliver) {
    auto it = open_.find(ev.seq);
    if (it == open_.end()) return;
    Journey j = std::move(it->second);
    open_.erase(it);
    j.hops.push_back(ev);
    j.delivered = true;
    ++completed_;
    if (!cfg_.out_path.empty()) done_.push_back(std::move(j));
    return;
  }
  // The injection opens the journey; so does the first grant of a packet
  // injected before the tracer was installed.
  auto [it, opened] = open_.try_emplace(ev.seq);
  Journey& j = it->second;
  if (opened) {
    j.seq = ev.seq;
    j.src = ev.src;
    j.dst = ev.dst;
  }
  if (ev.kind == TraceEvent::Kind::kGrant) j.hops.push_back(ev);
}

void PacketTracer::export_journeys() const {
  std::string doc = "{\"traceEvents\":[\n";
  const char* sep = "";
  const auto add = [&](const JsonWriter& event) {
    doc += sep;
    doc += event.str();
    sep = ",\n";
  };
  const auto name_track = [&](const char* what, u64 pid, u64 tid,
                              const std::string& name) {
    JsonWriter w;
    w.begin_object();
    w.key("ph").value("M");
    w.key("name").value(what);
    w.key("pid").value(pid);
    w.key("tid").value(tid);
    w.key("args").begin_object().key("name").value(name).end_object();
    add(w.end_object());
  };
  const auto instant = [&](u64 pid, const TraceEvent& ev, const char* name,
                           const char* kind) {
    JsonWriter w;
    begin_hop_event(w, "i", pid, ev.router, name, ev.cycle);
    append_event_json(w.key("args"), ev, kind);
    add(w.end_object());
  };
  const Cycle dur = net_.config().packet_size;
  const auto emit_journey = [&](const Journey& j) {
    const u64 pid = j.seq;
    std::string pname = "pkt " + std::to_string(j.seq) + " n" +
                        std::to_string(j.src) + "->n" + std::to_string(j.dst);
    if (!j.delivered) pname += " (in flight)";
    name_track("process_name", pid, 0, pname);
    std::vector<RouterId> named;
    for (const TraceEvent& ev : j.hops) {
      if (std::find(named.begin(), named.end(), ev.router) == named.end()) {
        named.push_back(ev.router);
        name_track("thread_name", pid, ev.router,
                   "router " + std::to_string(ev.router));
      }
      if (ev.kind == TraceEvent::Kind::kDeliver) {
        instant(pid, ev, "deliver", nullptr);
        continue;
      }
      if (ev.queue_wait > 0) {
        JsonWriter w;
        begin_hop_event(w, "X", pid, ev.router, "queued",
                        ev.cycle - ev.queue_wait);
        add(w.key("dur").value(ev.queue_wait).end_object());
      }
      const char* condition = to_string(ev.prov.condition);
      JsonWriter w;
      begin_hop_event(w, "X", pid, ev.router, condition, ev.cycle);
      append_event_json(w.key("dur").value(dur).key("args"), ev);
      add(w.end_object());
      // A grant that enters or leaves the escape ring is also marked by an
      // instant named after its condition, carrying the grant as a ring
      // move.
      if (ev.prov.condition == RouteCondition::kRingEnter ||
          ev.prov.condition == RouteCondition::kRingExit) {
        TraceEvent move = ev;
        move.ring_move = true;
        instant(pid, move, condition, condition);
      }
    }
  };
  for (const Journey& j : done_) emit_journey(j);
  for (const auto& [seq, j] : open_) emit_journey(j);  // still in flight
  JsonWriter other;
  other.begin_object().key("label").value(cfg_.label);
  other.key("time_unit").value("1 us == 1 cycle").end_object();
  doc += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":" + other.str() +
         "}\n";
  std::FILE* f = std::fopen(cfg_.out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", cfg_.out_path.c_str());
    return;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
}

void PacketTracer::finish() {
  if (finished_) return;
  finished_ = true;
  if (!cfg_.out_path.empty()) export_journeys();
}

}  // namespace ofar::trace
