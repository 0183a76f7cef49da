// Backend-equivalence tests for the SIMD strip kernels.
//
// The scalar loops in simd.cpp are the bit-exactness contract; every
// compiled-and-usable vector backend must reproduce them word for word —
// values, saturation counts, fire bits and toggle tallies alike. The tests
// below pin each usable backend in turn with set_backend() and compare
// against scalar results on adversarial inputs: saturation-heavy ranges,
// aliased destinations, ragged tails and degenerate [lo, hi] windows. The
// masked kernels are also held to a per-plane model written here: masked
// lanes get the op, unmasked lanes keep their bytes, and every count covers
// masked lanes only.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"

namespace sj::simd {
namespace {

/// Every backend this binary can actually run, scalar first.
std::vector<Backend> usable_backends() {
  std::vector<Backend> bs{Backend::Scalar};
  if (backend_usable(Backend::AVX2)) bs.push_back(Backend::AVX2);
  return bs;
}

/// Restores the pre-test dispatch choice so test order can't leak state.
class BackendGuard {
 public:
  BackendGuard() : saved_(active_backend()) {}
  ~BackendGuard() { set_backend(saved_); }

 private:
  Backend saved_;
};

std::vector<i16> random_i16(Rng& rng, int n, i32 lo, i32 hi) {
  std::vector<i16> v(n);
  for (i16& x : v) x = static_cast<i16>(rng.uniform_int(lo, hi));
  return v;
}

std::vector<i32> random_i32(Rng& rng, int n, i32 lo, i32 hi) {
  std::vector<i32> v(n);
  for (i32& x : v) x = static_cast<i32>(rng.uniform_int(lo, hi));
  return v;
}

TEST(SimdDispatchTest, BackendNamesRoundTrip) {
  for (const Backend b : {Backend::Scalar, Backend::AVX2}) {
    Backend parsed = Backend::Scalar;
    ASSERT_TRUE(parse_backend(backend_name(b), &parsed)) << backend_name(b);
    EXPECT_EQ(parsed, b);
  }
}

TEST(SimdDispatchTest, ParseRejectsGarbage) {
  Backend out = Backend::AVX2;
  EXPECT_FALSE(parse_backend(nullptr, &out));
  EXPECT_FALSE(parse_backend("", &out));
  EXPECT_FALSE(parse_backend("sse9", &out));
  EXPECT_FALSE(parse_backend("  ", &out));
  EXPECT_FALSE(parse_backend("neon", &out));  // no NEON backend
  EXPECT_EQ(out, Backend::AVX2);  // untouched on failure
  EXPECT_TRUE(parse_backend(" avx2 ", &out));
  EXPECT_EQ(out, Backend::AVX2);
  EXPECT_TRUE(parse_backend("SCALAR", &out));
  EXPECT_EQ(out, Backend::Scalar);
}

TEST(SimdDispatchTest, ScalarAlwaysUsableAndBestIsUsable) {
  EXPECT_TRUE(backend_compiled(Backend::Scalar));
  EXPECT_TRUE(backend_usable(Backend::Scalar));
  EXPECT_TRUE(backend_usable(best_backend()));
  if (backend_usable(Backend::AVX2)) {
    EXPECT_TRUE(backend_compiled(Backend::AVX2));
  }
}

TEST(SimdDispatchTest, Avx2BackendImpliesHardwarePopcount) {
  // The AVX2 kernels are compiled for avx2 and popcnt, so the backend may
  // only be usable on a CPU that executes both.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (backend_usable(Backend::AVX2)) {
    EXPECT_NE(__builtin_cpu_supports("avx2"), 0);
    EXPECT_NE(__builtin_cpu_supports("popcnt"), 0);
  }
#else
  EXPECT_FALSE(backend_usable(Backend::AVX2));
#endif
}

TEST(SimdDispatchTest, SetBackendSticks) {
  const BackendGuard guard;
  for (const Backend b : usable_backends()) {
    set_backend(b);
    EXPECT_EQ(active_backend(), b);
  }
}

// ---------------------------------------------------------------------------
// Kernel equivalence: each usable backend vs. the scalar reference.
// ---------------------------------------------------------------------------

TEST(SimdKernelTest, AccumulateMatchesScalar) {
  const BackendGuard guard;
  Rng rng(101);
  for (const int n : {16, 64, 256}) {
    const auto row = random_i16(rng, n, -32768, 32767);
    const auto acc0 = random_i32(rng, n, -(1 << 24), 1 << 24);

    set_backend(Backend::Scalar);
    auto want = acc0;
    accumulate_i16(want.data(), row.data(), n);

    for (const Backend b : usable_backends()) {
      set_backend(b);
      auto got = acc0;
      accumulate_i16(got.data(), row.data(), n);
      EXPECT_EQ(got, want) << backend_name(b) << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Masked kernels: each usable backend vs. a per-plane model.
// ---------------------------------------------------------------------------

/// Masks for the masked kernels. Each interesting word sits alone in each
/// of the four word positions and fills all four: empty, the lowest and
/// highest plane, 0x3FF (the MLP's 10-plane output word), alternate planes,
/// all-ones and seeded random words. Fully random masks follow.
std::vector<MaskWords> kernel_masks(Rng& rng) {
  std::vector<u64> words{0, 1, u64{1} << 63, 0x3FF, 0x5555555555555555, ~u64{0}};
  for (int i = 0; i < 3; ++i) words.push_back(rng.next_u64());
  std::vector<MaskWords> masks;
  for (const u64 w : words) {
    for (usize pos = 0; pos < 4; ++pos) {
      MaskWords m{};
      m[pos] = w;
      masks.push_back(m);
    }
    masks.push_back({w, w, w, w});
  }
  for (int i = 0; i < 4; ++i) {
    masks.push_back({rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()});
  }
  return masks;
}

bool masked(const MaskWords& m, int p) {
  return ((m[static_cast<usize>(p) >> 6] >> (p & 63)) & 1) != 0;
}

i32 clamp_ref(i32 v, i32 lo, i32 hi) { return v < lo ? lo : (v > hi ? hi : v); }

/// Hex dump of a mask for failure messages.
std::string mask_str(const MaskWords& m) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%016llx:%016llx:%016llx:%016llx",
                static_cast<unsigned long long>(m[3]), static_cast<unsigned long long>(m[2]),
                static_cast<unsigned long long>(m[1]), static_cast<unsigned long long>(m[0]));
  return buf;
}

constexpr int kLanes = 256;

TEST(SimdMaskedKernelTest, ClampStoreTouchesAndCountsMaskedLanesOnly) {
  const BackendGuard guard;
  Rng rng(102);
  struct Window {
    i32 lo, hi;
  };
  // Wide (rarely clamps), narrow (clamps constantly), degenerate (lo == hi).
  const Window windows[] = {{-32768, 32767}, {-127, 127}, {5, 5}};
  for (const Window w : windows) {
    for (const MaskWords& mask : kernel_masks(rng)) {
      const auto src = random_i32(rng, kLanes, -70000, 70000);
      const auto dst0 = random_i16(rng, kLanes, -32768, 32767);
      // The model: masked lanes clamped and counted, the rest untouched.
      auto want = dst0;
      i64 want_sat = 0;
      for (int p = 0; p < kLanes; ++p) {
        if (!masked(mask, p)) continue;
        const i32 c = clamp_ref(src[p], w.lo, w.hi);
        want_sat += c != src[p];
        want[p] = static_cast<i16>(c);
      }
      for (const Backend b : usable_backends()) {
        set_backend(b);
        auto got = dst0;
        const i64 sat = clamp_store_i16(mask, src.data(), got.data(), w.lo, w.hi);
        EXPECT_EQ(got, want) << backend_name(b) << " mask=" << mask_str(mask) << " lo=" << w.lo;
        EXPECT_EQ(sat, want_sat) << backend_name(b) << " mask=" << mask_str(mask);
      }
    }
  }
}

TEST(SimdMaskedKernelTest, AddClampTouchesAndCountsMaskedLanesOnlyAndToleratesAliasing) {
  const BackendGuard guard;
  Rng rng(103);
  for (const i32 bound : {255, 32767}) {
    for (const MaskWords& mask : kernel_masks(rng)) {
      // Full-range inputs so a + b exercises both clamp edges through the
      // widening add (sums reach +-65534, outside i16).
      const auto a = random_i16(rng, kLanes, -32768, 32767);
      const auto b = random_i16(rng, kLanes, -32768, 32767);
      const auto dst0 = random_i16(rng, kLanes, -32768, 32767);
      auto want = dst0, want_aliased = a;
      i64 want_sat = 0;
      for (int p = 0; p < kLanes; ++p) {
        if (!masked(mask, p)) continue;
        const i32 v = i32{a[p]} + b[p];
        const i32 c = clamp_ref(v, -bound, bound);
        want_sat += c != v;
        want[p] = want_aliased[p] = static_cast<i16>(c);
      }
      for (const Backend bk : usable_backends()) {
        set_backend(bk);
        auto got = dst0;
        const i64 sat = add_clamp_i16(mask, a.data(), b.data(), got.data(), -bound, bound);
        EXPECT_EQ(got, want) << backend_name(bk) << " mask=" << mask_str(mask);
        EXPECT_EQ(sat, want_sat) << backend_name(bk) << " mask=" << mask_str(mask);

        // dst aliasing a (the engine's consecutive in-router sum).
        auto aliased = a;
        const i64 alias_sat =
            add_clamp_i16(mask, aliased.data(), b.data(), aliased.data(), -bound, bound);
        EXPECT_EQ(aliased, want_aliased) << backend_name(bk) << " aliased " << mask_str(mask);
        EXPECT_EQ(alias_sat, want_sat) << backend_name(bk) << " aliased " << mask_str(mask);
      }
    }
  }
}

TEST(SimdMaskedKernelTest, IntegrateFireTouchesAndCountsMaskedLanesOnly) {
  const BackendGuard guard;
  Rng rng(104);
  // Thresholds on both sides of zero; lo/hi windows that force saturation,
  // up to the 30-bit potential cap and the 31-bit threshold limits.
  struct Cfg {
    i32 lo, hi, threshold;
  };
  const Cfg cfgs[] = {
      {-(1 << 23), (1 << 23) - 1, 1000},        // paper-like datapath
      {-128, 127, 16},                          // narrow, saturation-heavy
      {-128, 127, -5},                          // negative threshold: fires a lot
      {-(1 << 23), (1 << 23) - 1, 0},           // v >= 0 boundary
      {-(1 << 29), (1 << 29) - 1, (1 << 30) - 1},  // widest exact configuration
      {-(1 << 29), (1 << 29) - 1, -(1 << 30)},
  };
  for (const Cfg c : cfgs) {
    for (const MaskWords& mask : kernel_masks(rng)) {
      const auto pot0 = random_i32(rng, kLanes, c.lo * 2, c.hi * 2);
      const auto add = random_i16(rng, kLanes, -300, 300);
      auto want_pot = pot0;
      MaskWords want_fire{};
      i64 want_sat = 0, want_fired = 0;
      for (int p = 0; p < kLanes; ++p) {
        if (!masked(mask, p)) continue;
        const i32 v = pot0[p] + add[p];
        const i32 cl = clamp_ref(v, c.lo, c.hi);
        want_sat += cl != v;
        const bool f = cl >= c.threshold;
        want_fired += f;
        want_pot[p] = f ? cl - c.threshold : cl;
        if (f) want_fire[static_cast<usize>(p) >> 6] |= u64{1} << (p & 63);
      }
      for (const Backend b : usable_backends()) {
        set_backend(b);
        auto pot = pot0;
        i64 sat = 3, fired = 5;  // the kernel adds to both tallies
        const MaskWords fire = integrate_fire(mask, pot.data(), add.data(), c.lo, c.hi,
                                              c.threshold, &sat, &fired);
        const std::string what = std::string(backend_name(b)) + " thr=" +
                                 std::to_string(c.threshold) + " mask=" + mask_str(mask);
        EXPECT_EQ(pot, want_pot) << what;
        EXPECT_EQ(fire, want_fire) << what;
        EXPECT_EQ(sat, 3 + want_sat) << what;
        EXPECT_EQ(fired, 5 + want_fired) << what;
      }
    }
  }
}

TEST(SimdKernelTest, IntegrateFireExactGate) {
  EXPECT_TRUE(integrate_fire_exact(24, 1000));
  EXPECT_TRUE(integrate_fire_exact(30, (i64{1} << 30) - 1));
  EXPECT_TRUE(integrate_fire_exact(30, -(i64{1} << 30)));
  EXPECT_FALSE(integrate_fire_exact(31, 0));
  EXPECT_FALSE(integrate_fire_exact(24, i64{1} << 30));
  EXPECT_FALSE(integrate_fire_exact(24, -(i64{1} << 30) - 1));
}

TEST(SimdMaskedKernelTest, ToggleCountCountsMaskedLanesOnly) {
  const BackendGuard guard;
  Rng rng(105);
  // Full, low, high, split and single-bit wire masks: the AVX2 kernel counts
  // the masked XOR nibble by nibble, so every nibble position must matter.
  for (const u16 wire_mask : {u16{0xFFFF}, u16{0x01FF}, u16{0x00F0}, u16{0xFF00},
                              u16{0x8001}, u16{0x5A5A}, u16{0x0001}, u16{0}}) {
    for (const MaskWords& mask : kernel_masks(rng)) {
      const auto prev = random_i16(rng, kLanes, -32768, 32767);
      const auto vals = random_i16(rng, kLanes, -32768, 32767);
      i64 want = 0;
      for (int p = 0; p < kLanes; ++p) {
        if (!masked(mask, p)) continue;
        want += std::popcount(static_cast<u16>((prev[p] ^ vals[p]) & wire_mask));
      }
      for (const Backend b : usable_backends()) {
        set_backend(b);
        EXPECT_EQ(toggle_count_i16(mask, prev.data(), vals.data(), wire_mask), want)
            << backend_name(b) << " wire=" << wire_mask << " mask=" << mask_str(mask);
      }
    }
  }
}

TEST(SimdMaskedKernelTest, SpikeToggleCountCountsMaskedBitsOnly) {
  const BackendGuard guard;
  Rng rng(108);
  for (const MaskWords& mask : kernel_masks(rng)) {
    const MaskWords prev{rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()};
    const MaskWords vals{rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()};
    i64 want = 0;
    for (int p = 0; p < kLanes; ++p) want += masked(mask, p) && masked(prev, p) != masked(vals, p);
    for (const Backend b : usable_backends()) {
      set_backend(b);
      EXPECT_EQ(toggle_count_bits(mask, prev, vals), want)
          << backend_name(b) << " mask=" << mask_str(mask);
    }
  }
}

TEST(SimdMaskedKernelTest, CopyTouchesMaskedLanesOnly) {
  const BackendGuard guard;
  Rng rng(109);
  for (const MaskWords& mask : kernel_masks(rng)) {
    const auto src = random_i16(rng, kLanes, -32768, 32767);
    const auto dst0 = random_i16(rng, kLanes, -32768, 32767);
    auto want = dst0;
    for (int p = 0; p < kLanes; ++p) {
      if (masked(mask, p)) want[p] = src[p];
    }
    for (const Backend b : usable_backends()) {
      set_backend(b);
      auto got = dst0;
      copy_i16(mask, src.data(), got.data());
      EXPECT_EQ(got, want) << backend_name(b) << " mask=" << mask_str(mask);
    }
  }
}

/// The exact i32 sum the i8 gather must reproduce whenever it fits i16.
std::vector<i32> gather_reference(const std::vector<i8>& w, const std::vector<u16>& rows) {
  std::vector<i32> sum(256, 0);
  for (const u16 r : rows) {
    for (int j = 0; j < 256; ++j) sum[j] += w[static_cast<usize>(r) * 256 + j];
  }
  return sum;
}

TEST(SimdKernelTest, GatherRowsI8MatchesScalarAndExactSum) {
  const BackendGuard guard;
  Rng rng(106);
  // Weight tables: small random weights, and the i16 extremes — every row
  // -128 (256 rows sum to exactly -32768), every row +127, and a per-lane
  // -128/+127 mix, whose subset sums all stay within i16.
  std::vector<std::vector<i8>> tables(4, std::vector<i8>(256 * 256));
  for (i8& x : tables[0]) x = static_cast<i8>(rng.uniform_int(-15, 15));
  for (i8& x : tables[1]) x = -128;
  for (i8& x : tables[2]) x = 127;
  for (i8& x : tables[3]) x = rng.bernoulli(0.5) ? i8{-128} : i8{127};

  std::vector<u16> all(256);
  for (int r = 0; r < 256; ++r) all[static_cast<usize>(r)] = static_cast<u16>(r);
  std::vector<u16> some;  // a sparse, unsorted subset
  for (int r = 255; r >= 0; r -= 7) some.push_back(static_cast<u16>(r));
  const std::vector<std::vector<u16>> row_lists{{}, {0}, {255}, some, all};

  for (usize t = 0; t < tables.size(); ++t) {
    for (const auto& rows : row_lists) {
      const int n = static_cast<int>(rows.size());
      const std::vector<i32> exact = gather_reference(tables[t], rows);
      set_backend(Backend::Scalar);
      std::vector<i32> want(256, 12345);  // stale values must be overwritten
      gather_rows_i8(want.data(), tables[t].data(), rows.data(), n);
      EXPECT_EQ(want, exact) << "table " << t << " rows=" << n;
      for (const Backend b : usable_backends()) {
        set_backend(b);
        std::vector<i32> got(256, -777);
        gather_rows_i8(got.data(), tables[t].data(), rows.data(), n);
        EXPECT_EQ(got, want) << backend_name(b) << " table " << t << " rows=" << n;
      }
    }
  }
  EXPECT_EQ(gather_reference(tables[1], all)[0], -32768);  // the bound is reached
}

TEST(SimdKernelTest, EncodeStepMatchesScalarAndTheRateRule) {
  const BackendGuard guard;
  Rng rng(107);
  for (const i32 Q : {1, 255}) {
    for (const int n : {1, 63, 64, 65, 784}) {
      std::vector<i32> q(static_cast<usize>(n)), acc0(static_cast<usize>(n));
      for (int i = 0; i < n; ++i) {
        q[static_cast<usize>(i)] = static_cast<i32>(rng.uniform_int(0, Q));
        acc0[static_cast<usize>(i)] = static_cast<i32>(rng.uniform_int(0, Q - 1));
      }
      const usize words = static_cast<usize>((n + 63) / 64);
      // The rule itself, independent of any backend.
      std::vector<i32> acc_ref = acc0;
      std::vector<u64> bits_ref(words, 0);
      for (int i = 0; i < n; ++i) {
        i32& a = acc_ref[static_cast<usize>(i)];
        a += q[static_cast<usize>(i)];
        if (a >= Q) {
          a -= Q;
          bits_ref[static_cast<usize>(i) >> 6] |= u64{1} << (i & 63);
        }
      }
      for (const Backend b : usable_backends()) {
        set_backend(b);
        std::vector<i32> acc = acc0;
        std::vector<u64> bits(words, ~u64{0});  // bits >= n must come back zero
        encode_step(acc.data(), q.data(), n, Q, bits.data());
        EXPECT_EQ(acc, acc_ref) << backend_name(b) << " Q=" << Q << " n=" << n;
        EXPECT_EQ(bits, bits_ref) << backend_name(b) << " Q=" << Q << " n=" << n;
        // A second step from the updated state stays in lockstep with scalar.
        std::vector<i32> acc_s = acc;
        std::vector<u64> bits_s(words);
        set_backend(Backend::Scalar);
        encode_step(acc_s.data(), q.data(), n, Q, bits_s.data());
        set_backend(b);
        encode_step(acc.data(), q.data(), n, Q, bits.data());
        EXPECT_EQ(acc, acc_s) << backend_name(b) << " Q=" << Q << " n=" << n;
        EXPECT_EQ(bits, bits_s) << backend_name(b) << " Q=" << Q << " n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace sj::simd
