// Backend-equivalence tests for the SIMD strip kernels.
//
// The scalar loops in simd.cpp are the bit-exactness contract; every
// compiled-and-usable vector backend must reproduce them word for word —
// values, saturation counts, fire bits and toggle tallies alike. The tests
// below pin each usable backend in turn with set_backend() and compare
// against scalar results on adversarial inputs: saturation-heavy ranges,
// aliased destinations, ragged tails and degenerate [lo, hi] windows.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "common/simd.h"

namespace sj::simd {
namespace {

/// Every backend this binary can actually run, scalar first.
std::vector<Backend> usable_backends() {
  std::vector<Backend> bs{Backend::Scalar};
  for (const Backend b : {Backend::AVX2, Backend::NEON}) {
    if (backend_usable(b)) bs.push_back(b);
  }
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
  for (const Backend b : {Backend::Scalar, Backend::AVX2, Backend::NEON}) {
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
  for (const Backend b : {Backend::AVX2, Backend::NEON}) {
    if (backend_usable(b)) {
      EXPECT_TRUE(backend_compiled(b));
    }
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

TEST(SimdKernelTest, ClampStoreMatchesScalarIncludingSaturationCount) {
  const BackendGuard guard;
  Rng rng(102);
  struct Window {
    i32 lo, hi;
  };
  // Wide (rarely clamps), narrow (clamps constantly), degenerate (lo == hi).
  const Window windows[] = {{-32768, 32767}, {-127, 127}, {5, 5}};
  for (const Window w : windows) {
    for (const int n : {16, 64, 256}) {
      const auto src = random_i32(rng, n, -70000, 70000);

      set_backend(Backend::Scalar);
      std::vector<i16> want(n, 0);
      const i64 want_sat = clamp_store_i16(src.data(), want.data(), n, w.lo, w.hi);

      for (const Backend b : usable_backends()) {
        set_backend(b);
        std::vector<i16> got(n, 0);
        const i64 got_sat = clamp_store_i16(src.data(), got.data(), n, w.lo, w.hi);
        EXPECT_EQ(got, want) << backend_name(b) << " n=" << n << " lo=" << w.lo;
        EXPECT_EQ(got_sat, want_sat) << backend_name(b) << " n=" << n;
      }
    }
  }
}

TEST(SimdKernelTest, AddClampMatchesScalarAndToleratesAliasing) {
  const BackendGuard guard;
  Rng rng(103);
  for (const int n : {16, 64, 256}) {
    // Full-range inputs so a + b exercises both clamp edges through the
    // widening add (sums reach +-65534, outside i16).
    const auto a = random_i16(rng, n, -32768, 32767);
    const auto b = random_i16(rng, n, -32768, 32767);
    const i32 lo = -255, hi = 255;

    set_backend(Backend::Scalar);
    std::vector<i16> want(n, 0);
    const i64 want_sat = add_clamp_i16(a.data(), b.data(), want.data(), n, lo, hi);

    for (const Backend bk : usable_backends()) {
      set_backend(bk);
      std::vector<i16> got(n, 0);
      const i64 got_sat = add_clamp_i16(a.data(), b.data(), got.data(), n, lo, hi);
      EXPECT_EQ(got, want) << backend_name(bk) << " n=" << n;
      EXPECT_EQ(got_sat, want_sat) << backend_name(bk) << " n=" << n;

      // dst aliasing a (the engine's in-place in-router sum).
      auto aliased = a;
      const i64 alias_sat =
          add_clamp_i16(aliased.data(), b.data(), aliased.data(), n, lo, hi);
      EXPECT_EQ(aliased, want) << backend_name(bk) << " aliased n=" << n;
      EXPECT_EQ(alias_sat, want_sat) << backend_name(bk) << " aliased n=" << n;
    }
  }
}

TEST(SimdKernelTest, IntegrateFireMatchesScalar) {
  const BackendGuard guard;
  Rng rng(104);
  // Thresholds on both sides of zero; lo/hi windows that force saturation.
  struct Cfg {
    i32 lo, hi, threshold;
  };
  const Cfg cfgs[] = {
      {-(1 << 23), (1 << 23) - 1, 1000},  // paper-like datapath
      {-128, 127, 16},                    // narrow, saturation-heavy
      {-128, 127, -5},                    // negative threshold: fires a lot
      {-(1 << 23), (1 << 23) - 1, 0},     // v >= 0 boundary
  };
  for (const Cfg c : cfgs) {
    for (int trial = 0; trial < 8; ++trial) {
      const auto pot0 = random_i32(rng, 64, c.lo * 2, c.hi * 2);
      const auto add = random_i16(rng, 64, -300, 300);

      set_backend(Backend::Scalar);
      auto want_pot = pot0;
      i64 want_sat = 0;
      const u64 want_fire = integrate_fire_strip(want_pot.data(), add.data(),
                                                 c.lo, c.hi, c.threshold,
                                                 &want_sat);

      for (const Backend b : usable_backends()) {
        set_backend(b);
        auto got_pot = pot0;
        i64 got_sat = 0;
        const u64 got_fire = integrate_fire_strip(got_pot.data(), add.data(),
                                                  c.lo, c.hi, c.threshold,
                                                  &got_sat);
        EXPECT_EQ(got_pot, want_pot) << backend_name(b) << " thr=" << c.threshold;
        EXPECT_EQ(got_fire, want_fire) << backend_name(b) << " thr=" << c.threshold;
        EXPECT_EQ(got_sat, want_sat) << backend_name(b) << " thr=" << c.threshold;
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

TEST(SimdKernelTest, ToggleCountMatchesScalar) {
  const BackendGuard guard;
  Rng rng(105);
  // Full, low, high, split and single-bit wire masks: the AVX2 kernel counts
  // the masked XOR nibble by nibble, so every nibble position must matter.
  for (const u16 wire_mask : {u16{0xFFFF}, u16{0x01FF}, u16{0x00F0}, u16{0xFF00},
                              u16{0x8001}, u16{0x5A5A}, u16{0x0001}, u16{0}}) {
    for (const int n : {16, 64, 256, 48 /* partial-word tail shapes */}) {
      const auto prev = random_i16(rng, n, -32768, 32767);
      const auto vals = random_i16(rng, n, -32768, 32767);

      set_backend(Backend::Scalar);
      const i64 want = toggle_count_i16(prev.data(), vals.data(), n, wire_mask);

      for (const Backend b : usable_backends()) {
        set_backend(b);
        EXPECT_EQ(toggle_count_i16(prev.data(), vals.data(), n, wire_mask), want)
            << backend_name(b) << " mask=" << wire_mask;
      }
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
