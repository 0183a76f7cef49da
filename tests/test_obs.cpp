// Metrics-layer tests (src/obs): the telemetry primitives must be exact —
// histogram bucket edges are part of the serving SLO surface, merges must
// be associative so shard/window composition is order-free, and snapshots
// must survive a JSON round trip through src/json bit-for-bit. The registry
// is also hammered from many threads while snapshotting (TSan CI runs this
// binary, making that a real data-race check, not a hope).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/dump.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace sj::obs {
namespace {

TEST(Counter, SumsAcrossThreads) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr i64 kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (i64 i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  c.inc(-5);  // deltas may be negative (rare, but value() must still sum)
  EXPECT_EQ(c.value(), kThreads * kPerThread - 5);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(42);
  EXPECT_EQ(g.value(), 42);
  g.add(-10);
  EXPECT_EQ(g.value(), 32);
}

TEST(Histogram, BucketBoundariesAreInclusiveUpper) {
  Histogram h({10, 100, 1000});
  h.record(0);     // -> bucket 0 [0, 10]
  h.record(10);    // -> bucket 0 (upper bound inclusive)
  h.record(11);    // -> bucket 1 (10, 100]
  h.record(100);   // -> bucket 1
  h.record(101);   // -> bucket 2 (100, 1000]
  h.record(1000);  // -> bucket 2
  h.record(1001);  // -> overflow
  h.record(-7);    // clamps to 0 -> bucket 0
  const HistogramSnapshot s = h.snapshot("t");
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 3);
  EXPECT_EQ(s.counts[1], 2);
  EXPECT_EQ(s.counts[2], 2);
  EXPECT_EQ(s.counts[3], 1);
  EXPECT_EQ(s.count, 8);
  EXPECT_EQ(s.sum, 0 + 10 + 11 + 100 + 101 + 1000 + 1001 + 0);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), Error);
  EXPECT_THROW(Histogram({10, 10}), Error);
  EXPECT_THROW(Histogram({10, 5}), Error);
}

HistogramSnapshot snap_of(std::vector<i64> values) {
  Histogram h({10, 100, 1000});
  for (i64 v : values) h.record(v);
  return h.snapshot("t");
}

TEST(HistogramSnapshot, MergeIsAssociativeAndCommutative) {
  const HistogramSnapshot a = snap_of({1, 5, 200});
  const HistogramSnapshot b = snap_of({11, 1001, 1001});
  const HistogramSnapshot c = snap_of({50, 999});

  HistogramSnapshot ab = a;
  ab.merge(b);
  HistogramSnapshot ab_c = ab;
  ab_c.merge(c);

  HistogramSnapshot bc = b;
  bc.merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.merge(bc);

  EXPECT_EQ(ab_c.counts, a_bc.counts);
  EXPECT_EQ(ab_c.count, a_bc.count);
  EXPECT_EQ(ab_c.sum, a_bc.sum);

  HistogramSnapshot ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.counts, ba.counts);

  // Merging into an empty snapshot adopts the source (the window/shard
  // accumulator's seed case).
  HistogramSnapshot empty;
  empty.merge(a);
  EXPECT_EQ(empty.counts, a.counts);
}

TEST(HistogramSnapshot, SubtractYieldsTheWindow) {
  Histogram h({10, 100, 1000});
  h.record(5);
  h.record(500);
  const HistogramSnapshot before = h.snapshot("t");
  h.record(50);
  h.record(2000);
  HistogramSnapshot w = h.snapshot("t");
  w.subtract(before);
  EXPECT_EQ(w.count, 2);
  EXPECT_EQ(w.sum, 2050);
  EXPECT_EQ(w.counts[1], 1);  // the 50
  EXPECT_EQ(w.counts[3], 1);  // the 2000
  EXPECT_EQ(w.counts[0], 0);
  EXPECT_EQ(w.counts[2], 0);
}

TEST(HistogramSnapshot, QuantileInterpolatesWithinBucket) {
  Histogram h({100});
  for (int i = 0; i < 100; ++i) h.record(50);
  const HistogramSnapshot s = h.snapshot("t");
  // All mass in [0, 100]: the median interpolates to the bucket midpoint.
  EXPECT_NEAR(s.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(s.quantile(1.0), 100.0, 1e-9);
  EXPECT_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);

  // Overflow-only mass reports the last finite bound (conservative floor).
  Histogram over({100});
  over.record(5000);
  EXPECT_NEAR(over.snapshot("t").quantile(0.99), 100.0, 1e-9);
}

TEST(Registry, SnapshotJsonRoundTrip) {
  Registry reg;
  reg.counter("reqs").inc(7);
  reg.gauge("depth").set(3);
  Histogram& h = reg.histogram("lat_us", std::vector<i64>{10, 100, 1000});
  h.record(5);
  h.record(42);
  h.record(5000);

  const json::Value doc = reg.to_json();
  const json::Value reparsed = json::parse(doc.dump());
  EXPECT_EQ(doc, reparsed);  // dump/parse is lossless for the whole document
  const json::Value pretty = json::parse(doc.dump(2));
  EXPECT_EQ(doc, pretty);

  // And the histogram reconstructs to the same tallies and quantiles.
  const HistogramSnapshot s = h.snapshot("lat_us");
  const HistogramSnapshot rt =
      HistogramSnapshot::from_json("lat_us", reparsed.at("histograms").at("lat_us"));
  EXPECT_EQ(s.bounds, rt.bounds);
  EXPECT_EQ(s.counts, rt.counts);
  EXPECT_EQ(s.count, rt.count);
  EXPECT_EQ(s.sum, rt.sum);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), rt.quantile(0.5));

  EXPECT_EQ(reparsed.at("counters").at("reqs").as_int(), 7);
  EXPECT_EQ(reparsed.at("gauges").at("depth").as_int(), 3);
}

TEST(Registry, GetOrCreateReturnsStableObjects) {
  Registry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = reg.histogram("h", std::vector<i64>{1, 2});
  Histogram& h2 = reg.histogram("h", std::vector<i64>{1, 2});
  EXPECT_EQ(&h1, &h2);
  EXPECT_THROW(reg.histogram("h", std::vector<i64>{1, 3}), Error);
}

TEST(Registry, ConcurrentRegistrationRecordingAndSnapshots) {
  // Writers get-or-create + record while a reader snapshots continuously;
  // under TSan (CI matrix) this is the registry's data-race certificate.
  Registry reg;
  constexpr int kWriters = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&reg, w] {
      const std::string name = "m" + std::to_string(w % 2);
      for (int i = 0; i < kIters; ++i) {
        reg.counter(name).inc();
        reg.gauge("g").set(i);
        reg.histogram(name).record(i);
      }
    });
  }
  std::thread reader([&reg] {
    // Mid-storm snapshots are racy-by-design reads of relaxed atomics; the
    // point is that TSan sees no *data race*, not that bucket totals and
    // count agree transiently (they are separate atomics).
    i64 sink = 0;
    for (int i = 0; i < 200; ++i) {
      const RegistrySnapshot s = reg.snapshot();
      for (const HistogramSnapshot& h : s.histograms) sink += h.count;
    }
    EXPECT_GE(sink, 0);
  });
  for (auto& t : writers) t.join();
  reader.join();
  const RegistrySnapshot s = reg.snapshot();
  EXPECT_EQ(s.counter_or("m0", 0) + s.counter_or("m1", 0),
            static_cast<i64>(kWriters) * kIters);
  const HistogramSnapshot* h0 = s.histogram("m0");
  const HistogramSnapshot* h1 = s.histogram("m1");
  ASSERT_NE(h0, nullptr);
  ASSERT_NE(h1, nullptr);
  EXPECT_EQ(h0->count + h1->count, static_cast<i64>(kWriters) * kIters);
}

TEST(PhaseProfile, MergeGrowsShardVectorsAndJsonShape) {
  PhaseProfile a;
  a.frames = 2;
  a.exec_ns = 100;
  PhaseProfile b;
  b.sharded_frames = 1;
  b.encode_ns = 12;
  b.phase_wall_ns = 70;
  b.shard_ranges = 9;
  b.shard_exec_ns = {30, 40};
  b.shard_wait_ns = {40, 30};
  EXPECT_TRUE(PhaseProfile{}.empty());
  EXPECT_FALSE(a.empty());
  a.merge(b);
  EXPECT_EQ(a.frames, 2);
  EXPECT_EQ(a.sharded_frames, 1);
  ASSERT_EQ(a.shard_exec_ns.size(), 2u);
  EXPECT_EQ(a.shard_exec_ns[1], 40u);
  const json::Value j = a.to_json();
  EXPECT_EQ(j.at("frames").as_int(), 2);
  EXPECT_EQ(j.at("shard_exec_ns").as_array().size(), 2u);
  EXPECT_EQ(j.at("encode_ns").as_int(), 12);
  EXPECT_EQ(j.at("shard_ranges").as_int(), 9);
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.encode_ns, 0u);
  EXPECT_EQ(a.shard_ranges, 0);
  EXPECT_EQ(a.shard_exec_ns.size(), 2u);  // allocation kept, values zeroed
  EXPECT_EQ(a.shard_exec_ns[0], 0u);
}

TEST(MetricsDumper, WritesParseableFileAndFinalDump) {
  const std::string path = ::testing::TempDir() + "sj_obs_dump_test.json";
  std::remove(path.c_str());
  Registry reg;
  reg.counter("ticks").inc(3);
  {
    MetricsDumper dumper(path, [&reg] { return reg.to_json(); },
                         /*period_s=*/3600.0);  // only the explicit + final dumps
    EXPECT_TRUE(dumper.active());
    dumper.dump_now();
    const json::Value doc = json::parse_file(path);
    EXPECT_EQ(doc.at("counters").at("ticks").as_int(), 3);
    reg.counter("ticks").inc(2);
  }  // destructor: final dump
  const json::Value fin = json::parse_file(path);
  EXPECT_EQ(fin.at("counters").at("ticks").as_int(), 5);
  std::remove(path.c_str());

  MetricsDumper inactive("", nullptr);
  EXPECT_FALSE(inactive.active());
  inactive.dump_now();  // no-op, no throw
}

}  // namespace
}  // namespace sj::obs
