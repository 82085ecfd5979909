// Fixture: calls into OFAR_SERIAL_ONLY functions from parallel-phase
// code must be flagged, both directly and through an unannotated helper
// (transitive reachability), with explicit and implicit receivers. So
// must invoking a serial-only callback member (the trace callback): a
// parallel phase stages the event instead. Serial callers may call and
// emit directly, because they run on one thread in code order; reading
// the callback (a null test) is not a call.

#include <functional>

struct TraceEvent {
  int id;
};

struct Net {
  OFAR_SERIAL_ONLY void deliver_events();
  void helper();
};

void Net::helper() {
  deliver_events();  // expect: serial-call
}

struct Engine {
  OFAR_PARALLEL_PHASE void advance(Net& net);
  OFAR_SERIAL_ONLY void commit(Net& net);
  OFAR_SERIAL_ONLY std::function<void(const TraceEvent&)> tracer_;
};

void Engine::advance(Net& net) {
  net.deliver_events();  // expect: serial-call
  net.helper();
  if (tracer_) tracer_(TraceEvent{1});  // expect: serial-call
  if (tracer_) this->tracer_(TraceEvent{2});  // expect: serial-call
}

void Engine::commit(Net& net) {
  net.deliver_events();  // fine: serial caller
  if (tracer_) tracer_(TraceEvent{3});  // fine: serial emission
}
