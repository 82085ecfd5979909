// Exact division by a divisor known only at run time, without a divide
// instruction (Lemire, Kaser and Kurz, "Faster Remainder by Direct
// Computation", 2019).
//
// For a 32-bit divisor d, M = ceil(2^64 / d) makes every quotient and
// remainder of a 32-bit numerator n exact:
//
//     n / d = floor(M * n / 2^64)
//     n % d = floor((M * n mod 2^64) * d / 2^64)
//
// The topology's coordinate helpers and the kernel's channel-id split divide
// by h, 2h and the port count on every head and every event; a hardware
// divide costs 20-40 cycles there, the two multiplies a few. d = 1 (h = 1 is
// a valid network) has no 64-bit M: its M is 0, which keeps the remainder
// right (0), and the quotient adds n back through an all-ones mask.
#pragma once

#include "common/check.hpp"
#include "common/types.hpp"

namespace ofar {

class Divisor {
 public:
  Divisor() = default;
  explicit Divisor(u32 d) noexcept
      : m_(~u64{0} / (d == 0 ? 1 : d) + 1),  // wraps to 0 for d = 1
        d_(d),
        whole_(d == 1 ? ~u32{0} : 0) {
    OFAR_CHECK_MSG(d != 0, "division by zero");
  }

  u32 value() const noexcept { return d_; }
  u32 div(u32 n) const noexcept {
    return static_cast<u32>(mulhi(m_, n)) + (n & whole_);
  }
  u32 mod(u32 n) const noexcept {
    return static_cast<u32>(mulhi(m_ * n, d_));
  }

 private:
  static u64 mulhi(u64 a, u64 b) noexcept {
    __extension__ typedef unsigned __int128 u128;
    return static_cast<u64>((static_cast<u128>(a) * b) >> 64);
  }

  u64 m_ = 0;
  u32 d_ = 1;
  u32 whole_ = ~u32{0};  ///< all ones iff d = 1: the quotient is n itself
};

}  // namespace ofar
