#include "common/simd.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/log.h"
#include "common/status.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SJ_SIMD_HAVE_AVX2 1
#include <immintrin.h>
// Per-function target attribute: the rest of the binary stays baseline
// x86-64, only these kernels emit AVX2, and they are only dispatched to
// after a runtime __builtin_cpu_supports check. POPCNT is named explicitly
// (GCC already implies it through SSE4.2; the target list should not rely
// on that) and backend_usable checks it too, so a popcount in a kernel is
// the instruction, never a call to libgcc's software __popcountdi2
// (tools/check_avx2_popcount.sh checks the built object).
#define SJ_TARGET_AVX2 __attribute__((target("avx2,popcnt")))
#else
#define SJ_SIMD_HAVE_AVX2 0
#endif

#if defined(__aarch64__) || defined(__ARM_NEON)
#define SJ_SIMD_HAVE_NEON 1
#include <arm_neon.h>
#else
#define SJ_SIMD_HAVE_NEON 0
#endif

namespace sj::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference. Every other backend must match these loops bit for bit;
// they are also the fallback on CPUs without a compiled vector extension.
// ---------------------------------------------------------------------------

void accumulate_i16_scalar(i32* acc, const i16* row, int n) {
  for (int i = 0; i < n; ++i) acc[i] += row[i];
}

void gather_rows_i8_scalar(i32* acc, const i8* w, const u16* rows, int n) {
  // i16 lanes with wrapping adds (done in u16 so overflow is defined), the
  // arithmetic every vector backend performs.
  std::array<u16, 256> sum{};
  for (int i = 0; i < n; ++i) {
    const i8* row = w + static_cast<usize>(rows[i]) * 256;
    for (int j = 0; j < 256; ++j) sum[j] = static_cast<u16>(sum[j] + static_cast<u16>(row[j]));
  }
  for (int j = 0; j < 256; ++j) acc[j] = static_cast<i16>(sum[j]);
}

void encode_step_scalar(i32* acc, const i32* q, int n, i32 Q, u64* out_words) {
  std::fill_n(out_words, (n + 63) / 64, u64{0});
  for (int i = 0; i < n; ++i) {
    const i32 a = acc[i] + q[i];
    const bool f = a >= Q;
    acc[i] = f ? a - Q : a;
    out_words[i >> 6] |= static_cast<u64>(f) << (i & 63);
  }
}

i64 clamp_store_i16_scalar(const i32* src, i16* dst, int n, i32 lo, i32 hi) {
  i64 sat = 0;
  for (int i = 0; i < n; ++i) {
    const i32 v = src[i];
    const i32 c = v < lo ? lo : (v > hi ? hi : v);
    sat += (c != v);
    dst[i] = static_cast<i16>(c);
  }
  return sat;
}

i64 add_clamp_i16_scalar(const i16* a, const i16* b, i16* dst, int n, i32 lo, i32 hi) {
  i64 sat = 0;
  for (int i = 0; i < n; ++i) {
    const i32 v = static_cast<i32>(a[i]) + static_cast<i32>(b[i]);
    const i32 c = v < lo ? lo : (v > hi ? hi : v);
    sat += (c != v);
    dst[i] = static_cast<i16>(c);
  }
  return sat;
}

u64 integrate_fire_strip_scalar(i32* pot, const i16* add, i32 lo, i32 hi,
                                i32 threshold, i64* saturations) {
  u64 fire = 0;
  i64 sat = 0;
  for (int l = 0; l < 64; ++l) {
    const i32 v = pot[l] + add[l];  // exact under integrate_fire_exact
    i32 c = v < lo ? lo : (v > hi ? hi : v);
    sat += (c != v);
    const bool f = c >= threshold;
    c -= f ? threshold : 0;
    pot[l] = c;
    fire |= static_cast<u64>(f) << l;
  }
  *saturations += sat;
  return fire;
}

i64 toggle_count_i16_scalar(const i16* prev, const i16* vals, int n, u16 wire_mask) {
  i64 toggles = 0;
  for (int i = 0; i < n; ++i) {
    toggles += std::popcount(static_cast<u32>(
        (static_cast<u16>(prev[i]) ^ static_cast<u16>(vals[i])) & wire_mask));
  }
  return toggles;
}

#if SJ_SIMD_HAVE_AVX2

// ---------------------------------------------------------------------------
// AVX2: 16 i16 / 8 i32 lanes per 256-bit register.
// ---------------------------------------------------------------------------

SJ_TARGET_AVX2 inline i64 count_unequal_epi32(__m256i a, __m256i b) {
  // Each unequal i32 lane contributes four zero bytes to the movemask.
  const __m256i eq = _mm256_cmpeq_epi32(a, b);
  const u32 m = static_cast<u32>(_mm256_movemask_epi8(eq));
  return (32 - std::popcount(m)) / 4;
}

SJ_TARGET_AVX2 void accumulate_i16_avx2(i32* acc, const i16* row, int n) {
  for (int i = 0; i < n; i += 16) {
    const __m256i r = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    const __m256i lo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(r));
    const __m256i hi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(r, 1));
    __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    __m256i a1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i + 8));
    a0 = _mm256_add_epi32(a0, lo);
    a1 = _mm256_add_epi32(a1, hi);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i + 8), a1);
  }
}

// One 16-lane slice of an i8 row, sign-extended to i16 and added.
SJ_TARGET_AVX2 inline __m256i add_i8x16(__m256i sum, const i8* p) {
  return _mm256_add_epi16(
      sum, _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))));
}

// Widens 16 i16 lanes to i32 and stores them.
SJ_TARGET_AVX2 inline void store_i16x16(i32* dst, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                      _mm256_cvtepi16_epi32(_mm256_castsi256_si128(v)));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 8),
                      _mm256_cvtepi16_epi32(_mm256_extracti128_si256(v, 1)));
}

// 128 i16 lanes held in eight named registers (an indexed array would live
// on the stack), summed over the whole row list before a single widening
// store. The gather runs as two such halves: eight accumulators plus the
// load temporaries fit the sixteen ymm registers, so nothing spills inside
// the row loop.
SJ_TARGET_AVX2 inline void gather_half_i8_avx2(i32* acc, const i8* w, const u16* rows,
                                               int n) {
  __m256i s0 = _mm256_setzero_si256(), s1 = s0, s2 = s0, s3 = s0;
  __m256i s4 = s0, s5 = s0, s6 = s0, s7 = s0;
  for (int i = 0; i < n; ++i) {
    const i8* row = w + static_cast<usize>(rows[i]) * 256;
    s0 = add_i8x16(s0, row);
    s1 = add_i8x16(s1, row + 16);
    s2 = add_i8x16(s2, row + 32);
    s3 = add_i8x16(s3, row + 48);
    s4 = add_i8x16(s4, row + 64);
    s5 = add_i8x16(s5, row + 80);
    s6 = add_i8x16(s6, row + 96);
    s7 = add_i8x16(s7, row + 112);
  }
  store_i16x16(acc, s0);
  store_i16x16(acc + 16, s1);
  store_i16x16(acc + 32, s2);
  store_i16x16(acc + 48, s3);
  store_i16x16(acc + 64, s4);
  store_i16x16(acc + 80, s5);
  store_i16x16(acc + 96, s6);
  store_i16x16(acc + 112, s7);
}

SJ_TARGET_AVX2 void gather_rows_i8_avx2(i32* acc, const i8* w, const u16* rows, int n) {
  gather_half_i8_avx2(acc, w, rows, n);
  gather_half_i8_avx2(acc + 128, w + 128, rows, n);
}

SJ_TARGET_AVX2 void encode_step_avx2(i32* acc, const i32* q, int n, i32 Q, u64* out_words) {
  const __m256i vq = _mm256_set1_epi32(Q);
  const __m256i vq1 = _mm256_set1_epi32(Q - 1);  // a >= Q  <=>  a > Q - 1
  const int full = n / 64;
  for (int wi = 0; wi < full; ++wi) {
    u64 word = 0;
    for (int g = 0; g < 8; ++g) {
      const int i = wi * 64 + g * 8;
      __m256i a = _mm256_add_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i)));
      const __m256i fire = _mm256_cmpgt_epi32(a, vq1);
      a = _mm256_sub_epi32(a, _mm256_and_si256(fire, vq));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), a);
      word |= static_cast<u64>(static_cast<u32>(
                  _mm256_movemask_ps(_mm256_castsi256_ps(fire))))
              << (g * 8);
    }
    out_words[wi] = word;
  }
  const int done = full * 64;
  if (done < n) encode_step_scalar(acc + done, q + done, n - done, Q, out_words + full);
}

// Packs two clamped 8 x i32 vectors into one 16 x i16 vector. packs_epi32
// saturates to i16, which is exact here because [lo, hi] lies within i16;
// the permute undoes its 128-bit-lane interleave.
SJ_TARGET_AVX2 inline __m256i pack_clamped_i32(__m256i c0, __m256i c1) {
  return _mm256_permute4x64_epi64(_mm256_packs_epi32(c0, c1), 0xD8);
}

SJ_TARGET_AVX2 i64 clamp_store_i16_avx2(const i32* src, i16* dst, int n, i32 lo, i32 hi) {
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  i64 sat = 0;
  for (int i = 0; i < n; i += 16) {
    const __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i v1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 8));
    const __m256i c0 = _mm256_min_epi32(_mm256_max_epi32(v0, vlo), vhi);
    const __m256i c1 = _mm256_min_epi32(_mm256_max_epi32(v1, vlo), vhi);
    sat += count_unequal_epi32(v0, c0) + count_unequal_epi32(v1, c1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), pack_clamped_i32(c0, c1));
  }
  return sat;
}

SJ_TARGET_AVX2 i64 add_clamp_i16_avx2(const i16* a, const i16* b, i16* dst, int n,
                                      i32 lo, i32 hi) {
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  i64 sat = 0;
  for (int i = 0; i < n; i += 16) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i s0 = _mm256_add_epi32(
        _mm256_cvtepi16_epi32(_mm256_castsi256_si128(va)),
        _mm256_cvtepi16_epi32(_mm256_castsi256_si128(vb)));
    const __m256i s1 = _mm256_add_epi32(
        _mm256_cvtepi16_epi32(_mm256_extracti128_si256(va, 1)),
        _mm256_cvtepi16_epi32(_mm256_extracti128_si256(vb, 1)));
    const __m256i c0 = _mm256_min_epi32(_mm256_max_epi32(s0, vlo), vhi);
    const __m256i c1 = _mm256_min_epi32(_mm256_max_epi32(s1, vlo), vhi);
    sat += count_unequal_epi32(s0, c0) + count_unequal_epi32(s1, c1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), pack_clamped_i32(c0, c1));
  }
  return sat;
}

SJ_TARGET_AVX2 u64 integrate_fire_strip_avx2(i32* pot, const i16* add, i32 lo, i32 hi,
                                             i32 threshold, i64* saturations) {
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  const __m256i vthr = _mm256_set1_epi32(threshold);
  // v >= thr  <=>  v > thr - 1 (thr - 1 cannot wrap: |thr| <= 2^30).
  const __m256i vthr1 = _mm256_set1_epi32(threshold - 1);
  u64 fire_word = 0;
  i64 sat = 0;
  for (int g = 0; g < 8; ++g) {
    const __m256i p = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pot + g * 8));
    const __m256i a = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(add + g * 8)));
    const __m256i s = _mm256_add_epi32(p, a);
    const __m256i c = _mm256_min_epi32(_mm256_max_epi32(s, vlo), vhi);
    sat += count_unequal_epi32(s, c);
    const __m256i fire = _mm256_cmpgt_epi32(c, vthr1);
    const __m256i out = _mm256_sub_epi32(c, _mm256_and_si256(fire, vthr));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(pot + g * 8), out);
    const u32 bits = static_cast<u32>(_mm256_movemask_ps(_mm256_castsi256_ps(fire)));
    fire_word |= static_cast<u64>(bits) << (g * 8);
  }
  *saturations += sat;
  return fire_word;
}

// Toggle counting, 16 i16 lanes per register: the masked XOR's bits are
// counted per byte by the nibble-table method (vpshufb looks each nibble up
// in a 16-entry bit-count table) and summed into four u64 lanes by vpsadbw,
// so the loop issues no scalar popcount at all.
SJ_TARGET_AVX2 i64 toggle_count_i16_avx2(const i16* prev, const i16* vals, int n,
                                          u16 wire_mask) {
  const __m256i wm = _mm256_set1_epi16(static_cast<i16>(wire_mask));
  const __m256i nib = _mm256_set1_epi8(0x0F);
  const __m256i bits4 = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                                         0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  __m256i sum = _mm256_setzero_si256();
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prev + i));
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + i));
    const __m256i x = _mm256_and_si256(_mm256_xor_si256(a, b), wm);
    const __m256i cnt = _mm256_add_epi8(
        _mm256_shuffle_epi8(bits4, _mm256_and_si256(x, nib)),
        _mm256_shuffle_epi8(bits4, _mm256_and_si256(_mm256_srli_epi16(x, 4), nib)));
    sum = _mm256_add_epi64(sum, _mm256_sad_epu8(cnt, _mm256_setzero_si256()));
  }
  const __m128i s2 = _mm_add_epi64(_mm256_castsi256_si128(sum), _mm256_extracti128_si256(sum, 1));
  const i64 toggles = _mm_cvtsi128_si64(s2) + _mm_extract_epi64(s2, 1);
  return toggles + toggle_count_i16_scalar(prev + i, vals + i, n - i, wire_mask);
}

#endif  // SJ_SIMD_HAVE_AVX2

#if SJ_SIMD_HAVE_NEON

// ---------------------------------------------------------------------------
// NEON: 8 i16 / 4 i32 lanes per 128-bit register (baseline on AArch64).
// ---------------------------------------------------------------------------

inline i64 count_equal_s32(uint32x4_t eq) {
  // Equal lanes are all-ones; shift down to one bit per lane and sum.
  return vaddvq_u32(vshrq_n_u32(eq, 31));
}

void accumulate_i16_neon(i32* acc, const i16* row, int n) {
  for (int i = 0; i < n; i += 8) {
    const int16x8_t r = vld1q_s16(row + i);
    int32x4_t a0 = vld1q_s32(acc + i);
    int32x4_t a1 = vld1q_s32(acc + i + 4);
    a0 = vaddw_s16(a0, vget_low_s16(r));
    a1 = vaddw_s16(a1, vget_high_s16(r));
    vst1q_s32(acc + i, a0);
    vst1q_s32(acc + i + 4, a1);
  }
}

i64 clamp_store_i16_neon(const i32* src, i16* dst, int n, i32 lo, i32 hi) {
  const int32x4_t vlo = vdupq_n_s32(lo);
  const int32x4_t vhi = vdupq_n_s32(hi);
  i64 sat = 0;
  for (int i = 0; i < n; i += 8) {
    const int32x4_t v0 = vld1q_s32(src + i);
    const int32x4_t v1 = vld1q_s32(src + i + 4);
    const int32x4_t c0 = vminq_s32(vmaxq_s32(v0, vlo), vhi);
    const int32x4_t c1 = vminq_s32(vmaxq_s32(v1, vlo), vhi);
    sat += 8 - count_equal_s32(vceqq_s32(v0, c0)) - count_equal_s32(vceqq_s32(v1, c1));
    // Plain narrow is exact: values already clamped into i16.
    vst1q_s16(dst + i, vcombine_s16(vmovn_s32(c0), vmovn_s32(c1)));
  }
  return sat;
}

i64 add_clamp_i16_neon(const i16* a, const i16* b, i16* dst, int n, i32 lo, i32 hi) {
  const int32x4_t vlo = vdupq_n_s32(lo);
  const int32x4_t vhi = vdupq_n_s32(hi);
  i64 sat = 0;
  for (int i = 0; i < n; i += 8) {
    const int16x8_t va = vld1q_s16(a + i);
    const int16x8_t vb = vld1q_s16(b + i);
    const int32x4_t s0 = vaddl_s16(vget_low_s16(va), vget_low_s16(vb));
    const int32x4_t s1 = vaddl_s16(vget_high_s16(va), vget_high_s16(vb));
    const int32x4_t c0 = vminq_s32(vmaxq_s32(s0, vlo), vhi);
    const int32x4_t c1 = vminq_s32(vmaxq_s32(s1, vlo), vhi);
    sat += 8 - count_equal_s32(vceqq_s32(s0, c0)) - count_equal_s32(vceqq_s32(s1, c1));
    vst1q_s16(dst + i, vcombine_s16(vmovn_s32(c0), vmovn_s32(c1)));
  }
  return sat;
}

u64 integrate_fire_strip_neon(i32* pot, const i16* add, i32 lo, i32 hi,
                              i32 threshold, i64* saturations) {
  const int32x4_t vlo = vdupq_n_s32(lo);
  const int32x4_t vhi = vdupq_n_s32(hi);
  const int32x4_t vthr = vdupq_n_s32(threshold);
  const uint32x4_t lane_bits = {1u, 2u, 4u, 8u};
  u64 fire_word = 0;
  i64 sat = 0;
  for (int g = 0; g < 16; ++g) {
    const int32x4_t p = vld1q_s32(pot + g * 4);
    const int32x4_t s = vaddw_s16(p, vld1_s16(add + g * 4));
    const int32x4_t c = vminq_s32(vmaxq_s32(s, vlo), vhi);
    sat += 4 - count_equal_s32(vceqq_s32(s, c));
    const uint32x4_t fire = vcgeq_s32(c, vthr);
    const int32x4_t out =
        vsubq_s32(c, vandq_s32(vreinterpretq_s32_u32(fire), vthr));
    vst1q_s32(pot + g * 4, out);
    fire_word |= static_cast<u64>(vaddvq_u32(vandq_u32(fire, lane_bits))) << (g * 4);
  }
  *saturations += sat;
  return fire_word;
}

// Toggle counting, word-packed: four i16 lanes per u64 XOR + popcount
// (AArch64 popcounts in hardware). Lane order inside the word is irrelevant
// to a popcount, so this is exact on any endianness.
i64 toggle_count_i16_neon(const i16* prev, const i16* vals, int n, u16 wire_mask) {
  const u64 wm = u64{0x0001000100010001} * wire_mask;
  i64 toggles = 0;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    u64 a, b;
    std::memcpy(&a, prev + i, sizeof(a));
    std::memcpy(&b, vals + i, sizeof(b));
    toggles += std::popcount((a ^ b) & wm);
  }
  return toggles + toggle_count_i16_scalar(prev + i, vals + i, n - i, wire_mask);
}

#endif  // SJ_SIMD_HAVE_NEON

// ---------------------------------------------------------------------------
// Backend selection.
// ---------------------------------------------------------------------------

std::atomic<Backend> g_backend{Backend::Scalar};
std::atomic<bool> g_resolved{false};

Backend resolve_backend() {
  Backend b = best_backend();
  Backend wanted;
  const char* env = std::getenv("SHENJING_SIMD");
  if (env != nullptr && env[0] != '\0') {
    if (!parse_backend(env, &wanted)) {
      SJ_WARN("SHENJING_SIMD=" << env << " not recognized; using "
                               << backend_name(b));
    } else if (!backend_usable(wanted)) {
      SJ_WARN("SHENJING_SIMD=" << env << " not usable on this build/CPU; using "
                               << backend_name(b));
    } else {
      b = wanted;
    }
  }
  return b;
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::Scalar: return "scalar";
    case Backend::AVX2: return "avx2";
    case Backend::NEON: return "neon";
  }
  return "scalar";
}

bool backend_compiled(Backend b) {
  switch (b) {
    case Backend::Scalar: return true;
    case Backend::AVX2: return SJ_SIMD_HAVE_AVX2 != 0;
    case Backend::NEON: return SJ_SIMD_HAVE_NEON != 0;
  }
  return false;
}

bool backend_usable(Backend b) {
  if (!backend_compiled(b)) return false;
#if SJ_SIMD_HAVE_AVX2
  if (b == Backend::AVX2) {
    // The kernels are compiled for avx2 and popcnt (SJ_TARGET_AVX2).
    return __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("popcnt") != 0;
  }
#endif
  return true;  // Scalar always; NEON is baseline where compiled
}

Backend best_backend() {
  if (backend_usable(Backend::AVX2)) return Backend::AVX2;
  if (backend_usable(Backend::NEON)) return Backend::NEON;
  return Backend::Scalar;
}

Backend active_backend() {
  if (!g_resolved.load(std::memory_order_acquire)) {
    // Benign race: every thread resolves to the same value.
    g_backend.store(resolve_backend(), std::memory_order_relaxed);
    g_resolved.store(true, std::memory_order_release);
  }
  return g_backend.load(std::memory_order_relaxed);
}

void set_backend(Backend b) {
  SJ_REQUIRE(backend_usable(b),
             std::string("simd: backend not usable on this build/CPU: ") +
                 backend_name(b));
  g_backend.store(b, std::memory_order_relaxed);
  g_resolved.store(true, std::memory_order_release);
}

bool parse_backend(const char* text, Backend* out) {
  if (text == nullptr) return false;
  // Blanks and case are tolerated (SHENJING_SIMD=AVX2 means avx2).
  std::string s(text);
  const auto first = s.find_first_not_of(" \t");
  if (first == std::string::npos) return false;
  s = s.substr(first, s.find_last_not_of(" \t") - first + 1);
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  for (const Backend b : {Backend::Scalar, Backend::AVX2, Backend::NEON}) {
    if (s == backend_name(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

void accumulate_i16(i32* acc, const i16* row, int n) {
  switch (active_backend()) {
#if SJ_SIMD_HAVE_AVX2
    case Backend::AVX2: accumulate_i16_avx2(acc, row, n); return;
#endif
#if SJ_SIMD_HAVE_NEON
    case Backend::NEON: accumulate_i16_neon(acc, row, n); return;
#endif
    default: accumulate_i16_scalar(acc, row, n); return;
  }
}

i64 clamp_store_i16(const i32* src, i16* dst, int n, i32 lo, i32 hi) {
  switch (active_backend()) {
#if SJ_SIMD_HAVE_AVX2
    case Backend::AVX2: return clamp_store_i16_avx2(src, dst, n, lo, hi);
#endif
#if SJ_SIMD_HAVE_NEON
    case Backend::NEON: return clamp_store_i16_neon(src, dst, n, lo, hi);
#endif
    default: return clamp_store_i16_scalar(src, dst, n, lo, hi);
  }
}

i64 add_clamp_i16(const i16* a, const i16* b, i16* dst, int n, i32 lo, i32 hi) {
  switch (active_backend()) {
#if SJ_SIMD_HAVE_AVX2
    case Backend::AVX2: return add_clamp_i16_avx2(a, b, dst, n, lo, hi);
#endif
#if SJ_SIMD_HAVE_NEON
    case Backend::NEON: return add_clamp_i16_neon(a, b, dst, n, lo, hi);
#endif
    default: return add_clamp_i16_scalar(a, b, dst, n, lo, hi);
  }
}

u64 integrate_fire_strip(i32* pot, const i16* add, i32 lo, i32 hi, i32 threshold,
                         i64* saturations) {
  switch (active_backend()) {
#if SJ_SIMD_HAVE_AVX2
    case Backend::AVX2:
      return integrate_fire_strip_avx2(pot, add, lo, hi, threshold, saturations);
#endif
#if SJ_SIMD_HAVE_NEON
    case Backend::NEON:
      return integrate_fire_strip_neon(pot, add, lo, hi, threshold, saturations);
#endif
    default:
      return integrate_fire_strip_scalar(pot, add, lo, hi, threshold, saturations);
  }
}

void gather_rows_i8(i32* acc, const i8* w, const u16* rows, int n) {
  switch (active_backend()) {
#if SJ_SIMD_HAVE_AVX2
    case Backend::AVX2: gather_rows_i8_avx2(acc, w, rows, n); return;
#endif
    // NEON has no body of its own yet (none can be compile-checked on the
    // x86 CI hosts), so it runs the scalar reference.
    default: gather_rows_i8_scalar(acc, w, rows, n); return;
  }
}

void encode_step(i32* acc, const i32* q, int n, i32 Q, u64* out_words) {
  switch (active_backend()) {
#if SJ_SIMD_HAVE_AVX2
    case Backend::AVX2: encode_step_avx2(acc, q, n, Q, out_words); return;
#endif
    default: encode_step_scalar(acc, q, n, Q, out_words); return;  // NEON too
  }
}

i64 toggle_count_i16(const i16* prev, const i16* vals, int n, u16 wire_mask) {
  switch (active_backend()) {
    // AVX2 counts bits in vector lanes (a baseline x86-64 build has no
    // popcount instruction, so a u64-packed loop there would call libgcc's
    // software __popcountdi2 once per four lanes); NEON packs four lanes
    // per u64 and popcounts in hardware.
#if SJ_SIMD_HAVE_AVX2
    case Backend::AVX2: return toggle_count_i16_avx2(prev, vals, n, wire_mask);
#endif
#if SJ_SIMD_HAVE_NEON
    case Backend::NEON: return toggle_count_i16_neon(prev, vals, n, wire_mask);
#endif
    default: return toggle_count_i16_scalar(prev, vals, n, wire_mask);
  }
}

}  // namespace sj::simd
