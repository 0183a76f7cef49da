#include "common/simd.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cctype>
#include <cstdlib>
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

constexpr int kPlanes = 256;

inline i32 clamp_i32(i32 v, i32 lo, i32 hi) { return v < lo ? lo : (v > hi ? hi : v); }

// Calls fn(p) for every plane p set in `mask`, in increasing order: the
// masked kernels' reference walk.
template <class Fn>
inline void for_each_plane(const MaskWords& mask, Fn&& fn) {
  for (int wi = 0; wi < 4; ++wi) {
    for (u64 w = mask[static_cast<usize>(wi)]; w != 0; w &= w - 1) {
      fn(wi * 64 + std::countr_zero(w));
    }
  }
}

i64 clamp_store_i16_scalar(const MaskWords& mask, const i32* src, i16* dst, i32 lo,
                           i32 hi) {
  i64 sat = 0;
  for_each_plane(mask, [&](int p) {
    const i32 c = clamp_i32(src[p], lo, hi);
    sat += (c != src[p]);
    dst[p] = static_cast<i16>(c);
  });
  return sat;
}

i64 add_clamp_i16_scalar(const MaskWords& mask, const i16* a, const i16* b, i16* dst,
                         i32 lo, i32 hi) {
  i64 sat = 0;
  for_each_plane(mask, [&](int p) {
    const i32 v = static_cast<i32>(a[p]) + static_cast<i32>(b[p]);
    const i32 c = clamp_i32(v, lo, hi);
    sat += (c != v);
    dst[p] = static_cast<i16>(c);
  });
  return sat;
}

MaskWords integrate_fire_scalar(const MaskWords& mask, i32* pot, const i16* add, i32 lo,
                                i32 hi, i32 threshold, i64* saturations, i64* fired) {
  MaskWords fire{};
  i64 sat = 0, n = 0;
  for_each_plane(mask, [&](int p) {
    const i32 v = pot[p] + add[p];  // exact under integrate_fire_exact
    const i32 c = clamp_i32(v, lo, hi);
    sat += (c != v);
    const bool f = c >= threshold;
    n += f;
    pot[p] = f ? c - threshold : c;
    fire[static_cast<usize>(p >> 6)] |= static_cast<u64>(f) << (p & 63);
  });
  *saturations += sat;
  *fired += n;
  return fire;
}

i64 toggle_count_i16_scalar(const MaskWords& mask, const i16* prev, const i16* vals,
                            u16 wire_mask) {
  i64 toggles = 0;
  for_each_plane(mask, [&](int p) {
    toggles += std::popcount(static_cast<u32>(
        (static_cast<u16>(prev[p]) ^ static_cast<u16>(vals[p])) & wire_mask));
  });
  return toggles;
}

i64 toggle_count_bits_scalar(const MaskWords& mask, const MaskWords& prev,
                             const MaskWords& vals) {
  i64 toggles = 0;
  for (usize wi = 0; wi < 4; ++wi) toggles += std::popcount((prev[wi] ^ vals[wi]) & mask[wi]);
  return toggles;
}

void copy_i16_scalar(const MaskWords& mask, const i16* src, i16* dst) {
  for_each_plane(mask, [&](int p) { dst[p] = src[p]; });
}

#if SJ_SIMD_HAVE_AVX2

// ---------------------------------------------------------------------------
// AVX2: 16 i16 / 8 i32 lanes per 256-bit register.
// ---------------------------------------------------------------------------

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

// --- masked kernels: 16-lane blocks -----------------------------------------

constexpr u32 kFullBlock = 0xFFFF;

// The mask bits of planes [i, i + 16) (i a multiple of 16), bit l for plane
// i + l.
inline u32 block_bits(const MaskWords& mask, int i) {
  return static_cast<u32>(mask[static_cast<usize>(i >> 6)] >> (i & 63)) & kFullBlock;
}

// Expands 16 mask bits to 16 i16 lanes: all-ones where the bit is set.
SJ_TARGET_AVX2 inline __m256i lanes_i16(u32 bits) {
  const __m256i sel = _mm256_setr_epi16(
      0x0001, 0x0002, 0x0004, 0x0008, 0x0010, 0x0020, 0x0040, 0x0080, 0x0100, 0x0200,
      0x0400, 0x0800, 0x1000, 0x2000, 0x4000, static_cast<i16>(0x8000));
  const __m256i b = _mm256_set1_epi16(static_cast<i16>(bits));
  return _mm256_cmpeq_epi16(_mm256_and_si256(b, sel), sel);
}

// Expands 8 mask bits to 8 i32 lanes.
SJ_TARGET_AVX2 inline __m256i lanes_i32(u32 bits) {
  const __m256i sel = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i b = _mm256_set1_epi32(static_cast<i32>(bits));
  return _mm256_cmpeq_epi32(_mm256_and_si256(b, sel), sel);
}

// Bit l set when i32 lane l of a and b differ.
SJ_TARGET_AVX2 inline u32 unequal_bits_epi32(__m256i a, __m256i b) {
  const __m256i eq = _mm256_cmpeq_epi32(a, b);
  return ~static_cast<u32>(_mm256_movemask_ps(_mm256_castsi256_ps(eq))) & 0xFF;
}

// Stores the lanes of `v` whose mask bit is set; a full block is a plain
// store, a partial one blends into what dst holds.
SJ_TARGET_AVX2 inline void store_i16_masked(i16* dst, __m256i v, u32 bits) {
  __m256i* d = reinterpret_cast<__m256i*>(dst);
  if (bits != kFullBlock) v = _mm256_blendv_epi8(_mm256_loadu_si256(d), v, lanes_i16(bits));
  _mm256_storeu_si256(d, v);
}

// Packs two clamped 8 x i32 vectors into one 16 x i16 vector. packs_epi32
// saturates to i16, which is exact here because [lo, hi] lies within i16;
// the permute undoes its 128-bit-lane interleave.
SJ_TARGET_AVX2 inline __m256i pack_clamped_i32(__m256i c0, __m256i c1) {
  return _mm256_permute4x64_epi64(_mm256_packs_epi32(c0, c1), 0xD8);
}

SJ_TARGET_AVX2 i64 clamp_store_i16_avx2(const MaskWords& mask, const i32* src, i16* dst,
                                        i32 lo, i32 hi) {
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  i64 sat = 0;
  for (int i = 0; i < kPlanes; i += 16) {
    const u32 bits = block_bits(mask, i);
    if (bits == 0) continue;
    const __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i v1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 8));
    const __m256i c0 = _mm256_min_epi32(_mm256_max_epi32(v0, vlo), vhi);
    const __m256i c1 = _mm256_min_epi32(_mm256_max_epi32(v1, vlo), vhi);
    sat += std::popcount((unequal_bits_epi32(v0, c0) | unequal_bits_epi32(v1, c1) << 8) &
                         bits);
    store_i16_masked(dst + i, pack_clamped_i32(c0, c1), bits);
  }
  return sat;
}

SJ_TARGET_AVX2 i64 add_clamp_i16_avx2(const MaskWords& mask, const i16* a, const i16* b,
                                      i16* dst, i32 lo, i32 hi) {
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  i64 sat = 0;
  for (int i = 0; i < kPlanes; i += 16) {
    const u32 bits = block_bits(mask, i);
    if (bits == 0) continue;
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
    sat += std::popcount((unequal_bits_epi32(s0, c0) | unequal_bits_epi32(s1, c1) << 8) &
                         bits);
    store_i16_masked(dst + i, pack_clamped_i32(c0, c1), bits);
  }
  return sat;
}

// Eight i32 lanes per block: the potentials are i32.
SJ_TARGET_AVX2 MaskWords integrate_fire_avx2(const MaskWords& mask, i32* pot,
                                             const i16* add, i32 lo, i32 hi, i32 threshold,
                                             i64* saturations, i64* fired) {
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  const __m256i vthr = _mm256_set1_epi32(threshold);
  // v >= thr  <=>  v > thr - 1 (thr - 1 cannot wrap: |thr| <= 2^30).
  const __m256i vthr1 = _mm256_set1_epi32(threshold - 1);
  MaskWords fire{};
  i64 sat = 0;
  for (int i = 0; i < kPlanes; i += 8) {
    const u64 word = mask[static_cast<usize>(i >> 6)];
    const u32 bits = static_cast<u32>(word >> (i & 63)) & 0xFF;
    if (bits == 0) continue;
    __m256i* p = reinterpret_cast<__m256i*>(pot + i);
    const __m256i v = _mm256_loadu_si256(p);
    const __m256i s = _mm256_add_epi32(
        v, _mm256_cvtepi16_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(add + i))));
    const __m256i c = _mm256_min_epi32(_mm256_max_epi32(s, vlo), vhi);
    sat += std::popcount(unequal_bits_epi32(s, c) & bits);
    const __m256i f = _mm256_cmpgt_epi32(c, vthr1);
    __m256i out = _mm256_sub_epi32(c, _mm256_and_si256(f, vthr));
    if (bits != 0xFF) out = _mm256_blendv_epi8(v, out, lanes_i32(bits));
    _mm256_storeu_si256(p, out);
    const u32 f_bits = static_cast<u32>(_mm256_movemask_ps(_mm256_castsi256_ps(f))) & bits;
    fire[static_cast<usize>(i >> 6)] |= static_cast<u64>(f_bits) << (i & 63);
  }
  *saturations += sat;
  *fired += std::popcount(fire[0]) + std::popcount(fire[1]) + std::popcount(fire[2]) +
            std::popcount(fire[3]);
  return fire;
}

// Toggle counting, 16 i16 lanes per register: the masked XOR's bits are
// counted per byte by the nibble-table method (vpshufb looks each nibble up
// in a 16-entry bit-count table) and summed into four u64 lanes by vpsadbw,
// so the loop issues no scalar popcount at all.
SJ_TARGET_AVX2 i64 toggle_count_i16_avx2(const MaskWords& mask, const i16* prev,
                                          const i16* vals, u16 wire_mask) {
  const __m256i wm = _mm256_set1_epi16(static_cast<i16>(wire_mask));
  const __m256i nib = _mm256_set1_epi8(0x0F);
  const __m256i bits4 = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                                         0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  __m256i sum = _mm256_setzero_si256();
  for (int i = 0; i < kPlanes; i += 16) {
    const u32 bits = block_bits(mask, i);
    if (bits == 0) continue;
    const __m256i m = bits == kFullBlock ? wm : _mm256_and_si256(wm, lanes_i16(bits));
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prev + i));
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + i));
    const __m256i x = _mm256_and_si256(_mm256_xor_si256(a, b), m);
    const __m256i cnt = _mm256_add_epi8(
        _mm256_shuffle_epi8(bits4, _mm256_and_si256(x, nib)),
        _mm256_shuffle_epi8(bits4, _mm256_and_si256(_mm256_srli_epi16(x, 4), nib)));
    sum = _mm256_add_epi64(sum, _mm256_sad_epu8(cnt, _mm256_setzero_si256()));
  }
  const __m128i s2 = _mm_add_epi64(_mm256_castsi256_si128(sum), _mm256_extracti128_si256(sum, 1));
  return _mm_cvtsi128_si64(s2) + _mm_extract_epi64(s2, 1);
}

// The spike-word count needs only the popcnt half of the target: four
// hardware popcounts instead of libgcc's software routine.
SJ_TARGET_AVX2 i64 toggle_count_bits_avx2(const MaskWords& mask, const MaskWords& prev,
                                          const MaskWords& vals) {
  i64 toggles = 0;
  for (usize wi = 0; wi < 4; ++wi) toggles += std::popcount((prev[wi] ^ vals[wi]) & mask[wi]);
  return toggles;
}

SJ_TARGET_AVX2 void copy_i16_avx2(const MaskWords& mask, const i16* src, i16* dst) {
  for (int i = 0; i < kPlanes; i += 16) {
    const u32 bits = block_bits(mask, i);
    if (bits == 0) continue;
    store_i16_masked(dst + i,
                     _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)), bits);
  }
}

#endif  // SJ_SIMD_HAVE_AVX2

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
  }
  return "scalar";
}

bool backend_compiled(Backend b) {
  switch (b) {
    case Backend::Scalar: return true;
    case Backend::AVX2: return SJ_SIMD_HAVE_AVX2 != 0;
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
  return b == Backend::Scalar;
}

Backend best_backend() {
  if (backend_usable(Backend::AVX2)) return Backend::AVX2;
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
  for (const Backend b : {Backend::Scalar, Backend::AVX2}) {
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

// Each entry point runs its kernel's body for the active backend.
#if SJ_SIMD_HAVE_AVX2
#define SJ_DISPATCH(kernel, ...)                                               \
  do {                                                                         \
    if (active_backend() == Backend::AVX2) return kernel##_avx2(__VA_ARGS__); \
    return kernel##_scalar(__VA_ARGS__);                                       \
  } while (false)
#else
#define SJ_DISPATCH(kernel, ...) return kernel##_scalar(__VA_ARGS__)
#endif

void accumulate_i16(i32* acc, const i16* row, int n) {
  SJ_DISPATCH(accumulate_i16, acc, row, n);
}

void gather_rows_i8(i32* acc, const i8* w, const u16* rows, int n) {
  SJ_DISPATCH(gather_rows_i8, acc, w, rows, n);
}

void encode_step(i32* acc, const i32* q, int n, i32 Q, u64* out_words) {
  SJ_DISPATCH(encode_step, acc, q, n, Q, out_words);
}

i64 clamp_store_i16(const MaskWords& mask, const i32* src, i16* dst, i32 lo, i32 hi) {
  SJ_DISPATCH(clamp_store_i16, mask, src, dst, lo, hi);
}

i64 add_clamp_i16(const MaskWords& mask, const i16* a, const i16* b, i16* dst, i32 lo,
                  i32 hi) {
  SJ_DISPATCH(add_clamp_i16, mask, a, b, dst, lo, hi);
}

MaskWords integrate_fire(const MaskWords& mask, i32* pot, const i16* add, i32 lo, i32 hi,
                         i32 threshold, i64* saturations, i64* fired) {
  SJ_DISPATCH(integrate_fire, mask, pot, add, lo, hi, threshold, saturations, fired);
}

i64 toggle_count_i16(const MaskWords& mask, const i16* prev, const i16* vals,
                     u16 wire_mask) {
  SJ_DISPATCH(toggle_count_i16, mask, prev, vals, wire_mask);
}

i64 toggle_count_bits(const MaskWords& mask, const MaskWords& prev, const MaskWords& vals) {
  SJ_DISPATCH(toggle_count_bits, mask, prev, vals);
}

void copy_i16(const MaskWords& mask, const i16* src, i16* dst) {
  SJ_DISPATCH(copy_i16, mask, src, dst);
}

#undef SJ_DISPATCH

}  // namespace sj::simd
