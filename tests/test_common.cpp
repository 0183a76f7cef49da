// Unit tests for the common substrate: fixed-point helpers, RNG, BitVec,
// thread pool, string utilities, error types.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/bitvec.h"
#include "common/fixed.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/types.h"

namespace sj {
namespace {

// ----------------------------------------------------------------- fixed ---

TEST(Fixed, SignedBounds) {
  EXPECT_EQ(signed_max(5), 15);
  EXPECT_EQ(signed_min(5), -16);
  EXPECT_EQ(signed_max(13), 4095);
  EXPECT_EQ(signed_min(13), -4096);
  EXPECT_EQ(signed_max(16), 32767);
}

TEST(Fixed, FitsSigned) {
  EXPECT_TRUE(fits_signed(15, 5));
  EXPECT_FALSE(fits_signed(16, 5));
  EXPECT_TRUE(fits_signed(-16, 5));
  EXPECT_FALSE(fits_signed(-17, 5));
  EXPECT_TRUE(fits_signed(0, 1));
}

TEST(Fixed, SaturateClamps) {
  EXPECT_EQ(saturate_signed(100, 5), 15);
  EXPECT_EQ(saturate_signed(-100, 5), -16);
  EXPECT_EQ(saturate_signed(7, 5), 7);
}

TEST(Fixed, SaturatingAddFlags) {
  bool ovf = false;
  EXPECT_EQ(saturating_add(10, 10, 5, &ovf), 15);
  EXPECT_TRUE(ovf);
  EXPECT_EQ(saturating_add(3, 4, 5, &ovf), 7);
  EXPECT_FALSE(ovf);
  EXPECT_EQ(saturating_add(-16, -10, 5, &ovf), -16);
  EXPECT_TRUE(ovf);
}

TEST(Fixed, SignedBitWidth) {
  EXPECT_EQ(signed_bit_width(0), 1);
  EXPECT_EQ(signed_bit_width(1), 2);
  EXPECT_EQ(signed_bit_width(-1), 1);
  EXPECT_EQ(signed_bit_width(15), 5);
  EXPECT_EQ(signed_bit_width(16), 6);
  EXPECT_EQ(signed_bit_width(-16), 5);
  EXPECT_EQ(signed_bit_width(1920), 12);  // 128 axons x |w|<=15
  EXPECT_EQ(signed_bit_width(3840), 13);  // 256 axons x |w|<=15 -> local PS
}

// round_saturate is the weight quantizer of snn::convert: std::lround, then
// saturate_signed, without the libm call. These pin it to that reference on
// the values naive rounding gets wrong (floor(x + 0.5) rounds
// nextafter(0.5, 0) up to 1), on exact halves of both signs, on -0.0, and
// on both saturation sides at 4 and 15 bits.
TEST(Fixed, RoundSaturateMatchesLroundOnEdges) {
  const double below_half = std::nextafter(0.5, 0.0);
  const std::vector<double> edges = {
      0.5,     -0.5,     1.5,      -1.5,     2.5,      -2.5,      below_half, -below_half,
      -0.0,    0.0,      6.5,      -6.5,     7.4999,   7.5,       -8.4999,    -8.5,
      -9.5,    100.25,   -100.25,  16382.5,  16383.49, 16383.5,   -16383.5,   -16384.5,
      -16385.5, 65535.5, -65535.5, 2.1e9,    -2.1e9,   std::nextafter(2.5, 3.0),
      std::nextafter(-2.5, -3.0)};
  for (const int bits : {4, 15}) {
    for (const double x : edges) {
      EXPECT_EQ(round_saturate(x, bits), saturate_signed(std::lround(x), bits))
          << "x = " << x << ", bits = " << bits;
    }
  }
}

TEST(Fixed, RoundSaturateMatchesLroundOnSweep) {
  // 2^20 seeded doubles in +-2^16 (a quarter moved onto exact halves), then
  // as many in +-(signed_max + 2) so most of them round instead of
  // saturating. The quantize step runs as convert's loop does: an array
  // pass into i16.
  for (const int bits : {4, 5, 8, 15}) {
    Rng rng(static_cast<u64>(bits) + 4242);
    const double near = static_cast<double>(signed_max(bits)) + 2.0;
    std::vector<double> xs(usize{1} << 21);
    for (usize i = 0; i < xs.size(); ++i) {
      const double span = i < xs.size() / 2 ? 65536.0 : near;
      xs[i] = rng.uniform(-span, span);
      if (i % 4 == 0) xs[i] = std::floor(xs[i]) + 0.5;
    }
    std::vector<i16> q(xs.size());
    for (usize i = 0; i < xs.size(); ++i) q[i] = static_cast<i16>(round_saturate(xs[i], bits));
    usize mismatches = 0;
    for (usize i = 0; i < xs.size(); ++i) {
      mismatches += q[i] != saturate_signed(std::lround(xs[i]), bits) ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0u) << "bits = " << bits;
  }
}

// A width-parameterized sweep: saturation respects every width.
class FixedWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(FixedWidthTest, AddStaysInRange) {
  const int bits = GetParam();
  Rng rng(static_cast<u64>(bits) * 99 + 1);
  for (int i = 0; i < 200; ++i) {
    const i64 a = rng.uniform_int(signed_min(bits) * 2, signed_max(bits) * 2);
    const i64 b = rng.uniform_int(signed_min(bits) * 2, signed_max(bits) * 2);
    const i64 s = saturating_add(a, b, bits);
    EXPECT_GE(s, signed_min(bits));
    EXPECT_LE(s, signed_max(bits));
    if (fits_signed(a + b, bits)) {
      EXPECT_EQ(s, a + b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, FixedWidthTest, ::testing::Values(3, 5, 8, 13, 16, 24));

// ------------------------------------------------------------------- rng ---

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const i64 k = rng.uniform_int(-3, 7);
    EXPECT_GE(k, -3);
    EXPECT_LE(k, 7);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(7);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, SplitIndependent) {
  Rng a(9);
  Rng child = a.split();
  // The child stream should not replay the parent stream.
  Rng b(9);
  b.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 64);
}

// ---------------------------------------------------------------- bitvec ---

TEST(BitVec, SetGetClear) {
  BitVec v(300);
  EXPECT_EQ(v.size(), 300u);
  EXPECT_EQ(v.popcount(), 0u);
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(299, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(299));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 4u);
  v.set(63, false);
  EXPECT_FALSE(v.get(63));
  v.clear();
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, OutOfRangeThrows) {
  BitVec v(10);
  EXPECT_THROW(v.get(10), InvalidArgument);
  EXPECT_THROW(v.set(10, true), InvalidArgument);
}

TEST(BitVec, ForEachSetVisitsInOrder) {
  BitVec v(130);
  const std::vector<usize> want = {3, 64, 65, 129};
  for (const usize i : want) v.set(i, true);
  std::vector<usize> got;
  v.for_each_set([&](usize i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(BitVec, Equality) {
  BitVec a(65), b(65), c(66);
  a.set(64, true);
  b.set(64, true);
  EXPECT_EQ(a, b);
  b.set(0, true);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);
}

// ------------------------------------------------------------ threadpool ---

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](usize i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyAndTiny) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](usize) { FAIL(); });
  std::atomic<int> n{0};
  pool.parallel_for(1, [&](usize) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 1);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](usize i) {
                                   if (i == 57) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<i64> sum{0};
    pool.parallel_for(100, [&](usize i) { sum.fetch_add(static_cast<i64>(i)); });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ThreadPool, NestedParallelForFromWorkerCompletesEveryItemOnce) {
  // A nested call from one of the pool's own workers enqueues its chunks
  // and help-drains: whatever mix of caller and idle workers retires them,
  // every index runs exactly once.
  ThreadPool pool(2);
  EXPECT_FALSE(pool.on_worker_thread());
  std::atomic<bool> worker_ran_nested{false};
  std::atomic<i64> sum{0};
  pool.parallel_for(3, [&](usize) {
    if (pool.on_worker_thread()) {
      pool.parallel_for(32, [&](usize j) { sum.fetch_add(static_cast<i64>(j)); });
      worker_ran_nested.store(true);
    } else {
      // Items on the participating caller park until a worker has taken
      // one, so the caller cannot drain the whole loop before the nested
      // path is exercised. Cannot deadlock: while this thread spins, the
      // queued chunks are only poppable by the (idle) workers.
      while (!worker_ran_nested.load()) std::this_thread::yield();
      pool.parallel_for(32, [&](usize j) { sum.fetch_add(static_cast<i64>(j)); });
    }
  });
  EXPECT_TRUE(worker_ran_nested.load());
  // Every outer item ran the 32-element inner loop exactly once.
  EXPECT_EQ(sum.load(), 3 * 496);
}

TEST(ThreadPool, NestedParallelForRecruitsIdleWorkers) {
  // Regression test for the nested-scheduling fix (ROADMAP "smarter nested
  // scheduling"): when the outer loop under-fills the pool, nested chunks
  // must be claimable by the idle workers instead of serializing on the
  // calling worker. Each nested loop rendezvouses two of its own items —
  // both must be in flight simultaneously on different threads to pass,
  // which the old always-inline nested schedule can never achieve.
  ThreadPool pool(4);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::atomic<int> failures{0};
  std::atomic<bool> worker_ran_nested{false};
  // Outer n=3 < 4 workers: at least one outer item lands on a worker (the
  // two queued outer chunks are only poppable by workers), and at least two
  // workers stay idle for the nested chunks.
  pool.parallel_for(3, [&](usize) {
    if (pool.on_worker_thread()) {
      std::atomic<int> arrived{0};
      pool.parallel_for(2, [&](usize) {
        arrived.fetch_add(1);
        while (arrived.load() < 2) {
          if (std::chrono::steady_clock::now() > deadline) {
            failures.fetch_add(1);
            return;  // serialized: the partner item never started
          }
          std::this_thread::yield();
        }
      });
      worker_ran_nested.store(true);
    } else {
      while (!worker_ran_nested.load() && failures.load() == 0) {
        std::this_thread::yield();
      }
    }
  });
  EXPECT_TRUE(worker_ran_nested.load());
  EXPECT_EQ(failures.load(), 0) << "nested parallel_for serialized on the calling worker";
}

TEST(ThreadPool, NestedExceptionStillPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](usize) {
                                   pool.parallel_for(8, [](usize j) {
                                     if (j == 3) throw std::runtime_error("inner");
                                   });
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelClaimRunsEveryItemOnceOnExclusiveLanes) {
  // Each runner owns one lane for its whole run: the per-lane in-use flag
  // must never be found set on entry. Lane counts below, at and above the
  // pool size (above: parallel_for folds several lanes into one chunk).
  ThreadPool pool(4);
  for (const usize lanes : {1u, 2u, 3u, 4u, 7u, 20u}) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    constexpr usize kItems = 500;
    std::vector<std::atomic<int>> hits(kItems);
    std::vector<std::atomic<bool>> in_use(lanes);
    std::atomic<int> bad_lane{0}, shared_lane{0};
    pool.parallel_claim(kItems, lanes, [&](usize lane, usize i) {
      if (lane >= lanes) {
        bad_lane.fetch_add(1);
        return;
      }
      if (in_use[lane].exchange(true)) shared_lane.fetch_add(1);
      hits[i].fetch_add(1);
      // Uneven items: while one runner sleeps, the others claim past it,
      // which is when a second runner could land on a held lane.
      if (i % 5 == 0) std::this_thread::sleep_for(std::chrono::microseconds(100));
      in_use[lane].store(false);
    });
    EXPECT_EQ(bad_lane.load(), 0);
    EXPECT_EQ(shared_lane.load(), 0);
    for (usize i = 0; i < kItems; ++i) EXPECT_EQ(hits[i].load(), 1) << "item " << i;
  }
}

TEST(ThreadPool, ParallelClaimFewerItemsThanLanesAndEmpty) {
  ThreadPool pool(4);
  pool.parallel_claim(0, 4, [](usize, usize) { FAIL(); });
  pool.parallel_claim(0, 0, [](usize, usize) { FAIL(); });
  EXPECT_THROW(pool.parallel_claim(3, 0, [](usize, usize) {}), InvalidArgument);
  for (const usize n : {1u, 2u, 3u}) {
    std::vector<std::atomic<int>> hits(n);
    std::atomic<int> bad_lane{0};
    pool.parallel_claim(n, 8, [&](usize lane, usize i) {
      // Never more runners than items: lanes past n are not started.
      if (lane >= n) bad_lane.fetch_add(1);
      hits[i].fetch_add(1);
    });
    EXPECT_EQ(bad_lane.load(), 0) << n;
    for (usize i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << n << " item " << i;
  }
}

TEST(ThreadPool, ParallelClaimNestsFromAWorker) {
  ThreadPool pool(2);
  std::atomic<bool> worker_ran_nested{false};
  std::atomic<i64> sum{0};
  pool.parallel_for(3, [&](usize) {
    if (!pool.on_worker_thread()) {
      // As in NestedParallelForFromWorkerCompletesEveryItemOnce: the caller
      // waits until a worker has run its nested claim loop.
      while (!worker_ran_nested.load()) std::this_thread::yield();
    }
    pool.parallel_claim(32, 2, [&](usize, usize j) { sum.fetch_add(static_cast<i64>(j)); });
    if (pool.on_worker_thread()) worker_ran_nested.store(true);
  });
  EXPECT_TRUE(worker_ran_nested.load());
  EXPECT_EQ(sum.load(), 3 * 496);
}

TEST(ThreadPool, ParallelClaimRethrowsTheFirstException) {
  ThreadPool pool(4);
  try {
    pool.parallel_claim(100, 4, [](usize, usize i) {
      if (i == 57) throw std::runtime_error("boom 57");
    });
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 57");
  }
  // Several throwing items: one of them reaches the caller. On one lane
  // items run in order, so it is the first, and the lane stops there.
  EXPECT_THROW(pool.parallel_claim(100, 4,
                                   [](usize, usize i) {
                                     if (i % 10 == 3) throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  std::atomic<usize> ran{0};
  try {
    pool.parallel_claim(100, 1, [&](usize, usize i) {
      ran.fetch_add(1);
      if (i % 10 == 3) throw std::runtime_error("boom " + std::to_string(i));
    });
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
  EXPECT_EQ(ran.load(), 4u);
  // The pool is usable afterwards.
  std::atomic<int> n{0};
  pool.parallel_claim(10, 4, [&](usize, usize) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, ParseThreadCountAcceptsPlainPositiveIntegers) {
  EXPECT_EQ(parse_thread_count("1"), 1u);
  EXPECT_EQ(parse_thread_count("4"), 4u);
  EXPECT_EQ(parse_thread_count("256"), 256u);
  // Shell-export artifacts: leading/trailing blanks are tolerated.
  EXPECT_EQ(parse_thread_count(" 8"), 8u);
  EXPECT_EQ(parse_thread_count("8 "), 8u);
  EXPECT_EQ(parse_thread_count("8\n"), 8u);
}

TEST(ThreadPool, ParseThreadCountFallsBackToHardwareConcurrency) {
  // 0 means "use hardware concurrency" — the safe fallback for everything
  // that is not a plain positive integer in range.
  EXPECT_EQ(parse_thread_count(nullptr), 0u);
  EXPECT_EQ(parse_thread_count(""), 0u);
  EXPECT_EQ(parse_thread_count("0"), 0u);
  // Trailing garbage must not silently truncate to the numeric prefix.
  EXPECT_EQ(parse_thread_count("4x"), 0u);
  EXPECT_EQ(parse_thread_count("4.5"), 0u);
  EXPECT_EQ(parse_thread_count("4 threads"), 0u);
  EXPECT_EQ(parse_thread_count("abc"), 0u);
  // Negative values fall back instead of wrapping to a huge unsigned count.
  EXPECT_EQ(parse_thread_count("-1"), 0u);
  EXPECT_EQ(parse_thread_count("-999999"), 0u);
  // Out-of-range and long-overflowing values fall back instead of wrapping.
  EXPECT_EQ(parse_thread_count("257"), 0u);
  EXPECT_EQ(parse_thread_count("2147483648"), 0u);
  EXPECT_EQ(parse_thread_count("99999999999999999999999999"), 0u);
  EXPECT_EQ(parse_thread_count("-99999999999999999999999999"), 0u);
  EXPECT_EQ(parse_thread_count("0x10"), 0u);
}

TEST(ThreadPool, DistinctPoolsComposeWithoutInlining) {
  // A worker of pool A is not a worker of pool B: nesting across pools
  // still parallelizes on the inner pool.
  ThreadPool a(2), b(2);
  std::atomic<i64> sum{0};
  a.parallel_for(4, [&](usize i) {
    EXPECT_FALSE(b.on_worker_thread());
    b.parallel_for(50, [&](usize j) { sum.fetch_add(static_cast<i64>(i + j)); });
  });
  EXPECT_EQ(sum.load(), 4 * (50 * 49 / 2) + 50 * (4 * 3 / 2));
}

// ----------------------------------------------------------------- types ---

TEST(Types, Opposite) {
  EXPECT_EQ(opposite(Dir::North), Dir::South);
  EXPECT_EQ(opposite(Dir::South), Dir::North);
  EXPECT_EQ(opposite(Dir::East), Dir::West);
  EXPECT_EQ(opposite(Dir::West), Dir::East);
}

TEST(Types, Manhattan) {
  EXPECT_EQ(manhattan({0, 0}, {0, 0}), 0);
  EXPECT_EQ(manhattan({1, 2}, {4, 6}), 7);
  EXPECT_EQ(manhattan({4, 6}, {1, 2}), 7);
}

TEST(Types, CoordHashDistinct) {
  std::set<usize> hashes;
  std::hash<Coord> h;
  for (i32 r = 0; r < 10; ++r) {
    for (i32 c = 0; c < 10; ++c) hashes.insert(h(Coord{r, c}));
  }
  EXPECT_EQ(hashes.size(), 100u);
}

// ------------------------------------------------------------ string_util --

TEST(StringUtil, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strprintf("%.2f", 3.14159), "3.14");
}

TEST(StringUtil, FmtSi) {
  EXPECT_EQ(fmt_si(1.26e-3, "W"), "1.26 mW");
  EXPECT_EQ(fmt_si(120e3, "Hz"), "120 kHz");
  EXPECT_EQ(fmt_si(4.4e-12, "J"), "4.4 pJ");
  EXPECT_EQ(fmt_si(0.0, "W"), "0 W");
}

TEST(StringUtil, RenderTableAligns) {
  const std::string t = render_table({{"a", "bb"}, {"ccc", "d"}});
  EXPECT_NE(t.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(t.find("| ccc | d  |"), std::string::npos);
}

// ---------------------------------------------------------------- status ---

TEST(Status, ExceptionTypesAndLocation) {
  try {
    SJ_THROW_INVALID("bad arg");
    FAIL();
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("bad arg"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"), std::string::npos);
  }
  EXPECT_THROW(SJ_ASSERT(false, "x"), InternalError);
  EXPECT_THROW(SJ_THROW_IO("f"), IoError);
  EXPECT_THROW(SJ_THROW_MAPPING("m"), MappingError);
  EXPECT_NO_THROW(SJ_REQUIRE(true, "fine"));
}

}  // namespace
}  // namespace sj
