// Lightweight checked-invariant macros.
//
// OFAR_CHECK is always on (cheap, used on cold paths such as construction);
// OFAR_DCHECK compiles out in release builds and is used in per-cycle code.
// When compiled out, the condition (and message) remain inside an
// unevaluated sizeof so they are still parsed and type-checked — a DCHECK
// referencing a renamed member fails the NDEBUG build instead of bit-rotting.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace ofar::detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const char* msg) {
  std::fprintf(stderr, "OFAR_CHECK failed: %s at %s:%d%s%s\n", expr, file,
               line, msg[0] != '\0' ? " — " : "", msg);
  std::abort();
}

}  // namespace ofar::detail

#define OFAR_CHECK(cond)                                            \
  do {                                                              \
    if (!(cond)) [[unlikely]]                                       \
      ::ofar::detail::check_failed(#cond, __FILE__, __LINE__, "");  \
  } while (false)

#define OFAR_CHECK_MSG(cond, msg)                                    \
  do {                                                               \
    if (!(cond)) [[unlikely]]                                        \
      ::ofar::detail::check_failed(#cond, __FILE__, __LINE__, msg);  \
  } while (false)

#ifndef NDEBUG
namespace ofar {
/// True in checked builds: code that exists only to cross-check the
/// kernel runs under `if constexpr (kDchecksOn)`, so it still compiles in
/// NDEBUG builds.
inline constexpr bool kDchecksOn = true;
}  // namespace ofar
#define OFAR_DCHECK(cond) OFAR_CHECK(cond)
#define OFAR_DCHECK_MSG(cond, msg) OFAR_CHECK_MSG(cond, msg)
#else
namespace ofar {
inline constexpr bool kDchecksOn = false;
}  // namespace ofar
// Unevaluated operands: no codegen, but the expressions must still compile.
#define OFAR_DCHECK(cond)                            \
  do {                                               \
    static_cast<void>(sizeof((cond) ? 1 : 0));       \
  } while (false)
#define OFAR_DCHECK_MSG(cond, msg)                   \
  do {                                               \
    static_cast<void>(sizeof((cond) ? 1 : 0));       \
    static_cast<void>(sizeof((msg) != nullptr));     \
  } while (false)
#endif
