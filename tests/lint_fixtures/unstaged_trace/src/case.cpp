// Fixture: invoking the serial-only trace callback from a parallel phase
// must be flagged (events belong in ShardState staging); the serial
// commit path may fire it directly, as a reviewed (waived) trace-emit
// site.

#include <functional>

struct TraceEvent {
  int id;
};

struct Kernel {
  OFAR_PARALLEL_PHASE void phase();
  OFAR_SERIAL_ONLY void commit();
  OFAR_SERIAL_ONLY std::function<void(const TraceEvent&)> tracer_;
};

void Kernel::phase() {
  if (tracer_) tracer_(TraceEvent{1});  // expect: unstaged-trace, trace-emit
}

void Kernel::commit() {
  if (tracer_) tracer_(TraceEvent{2});  // lint: allow(trace-emit)
}
