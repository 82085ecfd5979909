// Fixture: every call of the trace callback is flagged, serial or not,
// unless the site is a reviewed serial emission carrying a waiver; reading
// the callback (a null test) is not an emission.

#include <functional>

struct TraceEvent {
  int id;
};

struct Kernel {
  void inject();
  void deliver();
  void commit();
  std::function<void(const TraceEvent&)> tracer_;
};

void Kernel::inject() {
  if (tracer_) tracer_(TraceEvent{1});  // expect: trace-emit
}

void Kernel::deliver() {
  if (tracer_) this->tracer_(TraceEvent{2});  // expect: trace-emit
}

void Kernel::commit() {
  if (tracer_) tracer_(TraceEvent{3});  // lint: allow(trace-emit)
}
