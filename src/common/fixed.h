// Fixed-point helpers used by the hardware model.
//
// Shenjing's datapaths are narrow integers: 5-bit signed synaptic weights,
// 13-bit local partial sums, 16-bit PS-NoC links/adders (paper §II). The
// simulator computes in wide integers and uses these helpers to (a) clamp
// values into a given bit width and (b) detect when hardware *would* have
// overflowed, which EXP-A2 (bit-width ablation) counts.
#pragma once

#include <cmath>
#include <limits>

#include "common/status.h"
#include "common/types.h"

namespace sj {

/// Largest value representable by a signed two's-complement `bits`-wide field.
constexpr i64 signed_max(int bits) { return (i64{1} << (bits - 1)) - 1; }

/// Smallest value representable by a signed two's-complement `bits`-wide field.
constexpr i64 signed_min(int bits) { return -(i64{1} << (bits - 1)); }

/// True when `v` fits in a signed `bits`-wide field.
constexpr bool fits_signed(i64 v, int bits) {
  return v >= signed_min(bits) && v <= signed_max(bits);
}

/// Saturate `v` into a signed `bits`-wide field.
constexpr i64 saturate_signed(i64 v, int bits) {
  const i64 lo = signed_min(bits);
  const i64 hi = signed_max(bits);
  return v < lo ? lo : (v > hi ? hi : v);
}

/// Rounds `x` half away from zero and saturates it into a signed `bits`-wide
/// field: saturate_signed(std::lround(x), bits) for every x std::lround
/// takes, with no libm call and no branch, so a loop over it vectorizes. Clamping first is
/// exact: the bounds are integers, so rounding a clamped value lands on the
/// same bound as saturating a rounded one. Then c + copysign(h, c), with h
/// the largest double below 1/2, truncates to the rounded value: a dropped
/// fraction below 1/2 keeps the sum short of the next integer (the sum is
/// exact or rounds down for |c| < 2^52), and one of 1/2 or more reaches it
/// (at |c| < 1 the sum 1 - 2^-54 rounds to even, which is 1).
inline i32 round_saturate(double x, int bits) {
  constexpr double kBelowHalf = 0.49999999999999994;  // nextafter(0.5, 0)
  const double lo = static_cast<double>(signed_min(bits));
  const double hi = static_cast<double>(signed_max(bits));
  const double c = x < lo ? lo : (x > hi ? hi : x);
  return static_cast<i32>(c + std::copysign(kBelowHalf, c));
}

/// Saturating adder of width `bits`, as implemented inside a PS router.
/// `overflowed` (optional) is set when saturation occurred.
constexpr i64 saturating_add(i64 a, i64 b, int bits, bool* overflowed = nullptr) {
  const i64 sum = a + b;
  const bool ovf = !fits_signed(sum, bits);
  if (overflowed != nullptr) *overflowed = ovf;
  return saturate_signed(sum, bits);
}

/// Number of bits needed to represent `v` as a signed field (including sign).
constexpr int signed_bit_width(i64 v) {
  int bits = 1;
  while (!fits_signed(v, bits)) ++bits;
  return bits;
}

}  // namespace sj
