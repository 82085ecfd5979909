// Clang thread-safety capability annotations (DESIGN.md §12).
//
// A thin shim over clang's -Wthread-safety attribute set
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). On clang the
// macros expand to the real attributes and the CI thread-safety build
// checks them with -Wthread-safety -Werror; on GCC (the default local
// toolchain) they expand to nothing, so codegen and golden digests are
// identical with or without them.
//
// Two capability families are annotated in this codebase:
//
//  - real mutexes: ShardPool's worker-pool state is guarded by an
//    ofar::tsa::Mutex (a std::mutex wrapped so the analysis can see it —
//    libstdc++'s std::mutex carries no capability attributes);
//  - the phantom "serial_phase" capability (below): a zero-size token
//    standing for "this code runs in a serial section of a simulation
//    cycle". The four serial-only mutators (MetricsRegistry::set/add,
//    PacketTracer::on_event, FlightRecorder::record) REQUIRE it, and the
//    code that calls them asserts it where the serial phase is known, so
//    clang rejects any path to them that makes no such assertion. Which
//    code runs in a parallel phase is a call-graph question: ofar_lint's
//    serial-call rule checks that (OFAR_SERIAL_ONLY, phase.hpp).
#pragma once

#include <mutex>

#if defined(__clang__) && !defined(SWIG)
#define OFAR_TSA(x) __attribute__((x))
#else
#define OFAR_TSA(x)
#endif

#define OFAR_CAPABILITY(x) OFAR_TSA(capability(x))
#define OFAR_GUARDED_BY(x) OFAR_TSA(guarded_by(x))
#define OFAR_PT_GUARDED_BY(x) OFAR_TSA(pt_guarded_by(x))
#define OFAR_REQUIRES(...) OFAR_TSA(requires_capability(__VA_ARGS__))
#define OFAR_ACQUIRE(...) OFAR_TSA(acquire_capability(__VA_ARGS__))
#define OFAR_RELEASE(...) OFAR_TSA(release_capability(__VA_ARGS__))
#define OFAR_TRY_ACQUIRE(...) OFAR_TSA(try_acquire_capability(__VA_ARGS__))
#define OFAR_EXCLUDES(...) OFAR_TSA(locks_excluded(__VA_ARGS__))
#define OFAR_ASSERT_CAPABILITY(x) OFAR_TSA(assert_capability(x))
#define OFAR_RETURN_CAPABILITY(x) OFAR_TSA(lock_returned(x))
#define OFAR_NO_THREAD_SAFETY_ANALYSIS OFAR_TSA(no_thread_safety_analysis)

namespace ofar::tsa {

/// std::mutex with capability attributes, so GUARDED_BY/REQUIRES sites can
/// name it. std::lock_guard<Mutex> is understood by the analysis (clang
/// models the std scoped guards); condition-variable waits go through
/// native() inside OFAR_NO_THREAD_SAFETY_ANALYSIS functions — cv wait
/// predicates release and reacquire in a way the analysis cannot model.
class OFAR_CAPABILITY("mutex") Mutex {
 public:
  void lock() OFAR_ACQUIRE() { m_.lock(); }
  void unlock() OFAR_RELEASE() { m_.unlock(); }
  /// The wrapped handle, for std::condition_variable wait sites.
  std::mutex& native() noexcept { return m_; }

 private:
  std::mutex m_;
};

/// The phantom serial-phase capability: no storage, no runtime effect —
/// purely a token the analysis tracks. One global instance stands for "the
/// serial section of the current simulation cycle".
class OFAR_CAPABILITY("serial_phase") SerialPhaseCap {
 public:
  /// States that the caller is in a serial context: used where callers
  /// are serial by contract (the tracer callback, which only serial
  /// sections fire, and telemetry sampling).
  void assert_held() const OFAR_ASSERT_CAPABILITY(this) {}
};

/// The one global serial-phase token (see SerialPhaseCap).
inline SerialPhaseCap serial_phase;

}  // namespace ofar::tsa

/// Shorthand for the kernel's serial-commit contract.
#define OFAR_REQUIRES_SERIAL OFAR_REQUIRES(::ofar::tsa::serial_phase)
