// Clang thread-safety capability annotations (DESIGN.md §12).
//
// A thin shim over clang's -Wthread-safety attribute set
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). On clang the
// macros expand to the real attributes and the CI thread-safety build
// checks them with -Wthread-safety -Werror; on GCC (the default local
// toolchain) they expand to nothing, so codegen and golden digests are
// identical with or without them.
//
// One capability is annotated: the phantom "serial_phase" capability
// (below), a zero-size token standing for "this code runs in a serial
// section of a simulation cycle". The serial-only mutator
// PacketTracer::on_event REQUIRES it, and the tracer callback that calls
// it asserts it, so clang rejects any path to it that makes no such
// assertion. Which code runs in a parallel phase is a call-graph question:
// ofar_lint's serial-call rule checks that (OFAR_SERIAL_ONLY, phase.hpp).
#pragma once

#if defined(__clang__) && !defined(SWIG)
#define OFAR_TSA(x) __attribute__((x))
#else
#define OFAR_TSA(x)
#endif

#define OFAR_CAPABILITY(x) OFAR_TSA(capability(x))
#define OFAR_REQUIRES(...) OFAR_TSA(requires_capability(__VA_ARGS__))
#define OFAR_ASSERT_CAPABILITY(x) OFAR_TSA(assert_capability(x))

namespace ofar::tsa {

/// The phantom serial-phase capability: no storage, no runtime effect —
/// purely a token the analysis tracks. One global instance stands for "the
/// serial section of the current simulation cycle".
class OFAR_CAPABILITY("serial_phase") SerialPhaseCap {
 public:
  /// States that the caller is in a serial context: used where callers
  /// are serial by contract (the tracer callback, which only serial
  /// sections fire).
  void assert_held() const OFAR_ASSERT_CAPABILITY(this) {}
};

/// The one global serial-phase token (see SerialPhaseCap).
inline SerialPhaseCap serial_phase;

}  // namespace ofar::tsa

/// Shorthand for the kernel's serial-commit contract.
#define OFAR_REQUIRES_SERIAL OFAR_REQUIRES(::ofar::tsa::serial_phase)
