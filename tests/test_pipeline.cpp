// Cross-timestep pipeline analysis (mapper/pipeline.h) unit tests.
//
// The hand-built cases pin build_pipeline()'s arithmetic — II floor, depth,
// span, per-op slack, the issue rule on shared (core, block) slots — on
// programs small enough to verify on paper; the mapped cases check that
// both MNIST nets overlap within check_routes' issue rule, that a compiled
// model runs the schedule the analysis computes
// (CompiledModel::pipeline()), and that a mapping compiled with pipelining
// off gets the serial II = C schedule.
#include <gtest/gtest.h>

#include <string>

#include "harness/zoo.h"
#include "mapper/mapper.h"
#include "mapper/pipeline.h"
#include "nn/dataset.h"
#include "sim/engine.h"
#include "snn/convert.h"

namespace sj {
namespace {

using core::AtomicOp;
using core::PlaneMask;

/// One core on a 1x1 grid with a hand-written schedule: the smallest
/// MappedNetwork build_pipeline() accepts, with pipelining on. acc_cycles
/// stays the paper's 131 so the ACC-window arithmetic below matches the real
/// floor.
map::MappedNetwork tiny(u32 cycles_per_timestep, i32 timesteps) {
  map::MappedNetwork m;
  m.name = "hand-built";
  m.timesteps = timesteps;
  m.cycles_per_timestep = cycles_per_timestep;
  m.grid_rows = 1;
  m.grid_cols = 1;
  m.pipeline = 1;
  map::MappedCore c;
  c.pos = {0, 0};
  m.cores.push_back(c);
  return m;
}

void push(map::MappedNetwork& m, u32 cycle, AtomicOp op, PlaneMask mask = PlaneMask::all()) {
  m.schedule.push_back({cycle, 0, mask, op});
}

/// Two consecutive iterations of `ps` unrolled into one schedule, each op at
/// its absolute cycle k*II + op_cycle. At most two iterations are live, so
/// every issue slot iterations k and k+1 share appears here, and
/// check_routes judges the overlapped schedule by the serial one's rule.
map::MappedNetwork unroll_two(const map::MappedNetwork& m, const map::PipelineSchedule& ps) {
  map::MappedNetwork u = m;
  u.schedule.clear();
  for (u32 k = 0; k < 2; ++k) {
    for (usize i = 0; i < m.schedule.size(); ++i) {
      map::TimedOp t = m.schedule[i];
      t.cycle = k * static_cast<u32>(ps.ii) + static_cast<u32>(ps.op_cycle[i]);
      u.schedule.push_back(t);
    }
  }
  return u;
}

/// Per-op slack, depth - d: how many cycles earlier than its serial slot an
/// op issues in the next timestep (negative = delayed past it).
std::vector<i32> slack_of(const map::PipelineSchedule& ps, const map::MappedNetwork& m) {
  std::vector<i32> slack(ps.op_cycle.size());
  for (usize i = 0; i < slack.size(); ++i) {
    slack[i] = ps.depth - (ps.op_cycle[i] - static_cast<i32>(m.schedule[i].cycle));
  }
  return slack;
}

/// The serial schedule as the degenerate modulo schedule: II = span = C, no
/// overlap, every op at its schedule cycle with zero slack, rotation at 0 on
/// the (one, active) core, readout at C-1 and ACC committed in place.
void expect_serial_schedule(const map::PipelineSchedule& ps, const map::MappedNetwork& m) {
  const i32 C = static_cast<i32>(m.cycles_per_timestep);
  EXPECT_EQ(ps.ii, C);
  EXPECT_EQ(ps.span, C);
  EXPECT_EQ(ps.depth, 0);
  EXPECT_EQ(ps.acc_latency, 0);
  ASSERT_EQ(ps.op_cycle.size(), m.schedule.size());
  for (usize i = 0; i < m.schedule.size(); ++i) {
    EXPECT_EQ(ps.op_cycle[i], static_cast<i32>(m.schedule[i].cycle)) << "op " << i;
  }
  EXPECT_EQ(slack_of(ps, m), std::vector<i32>(m.schedule.size(), 0));
  EXPECT_EQ(ps.rotate_cycle, std::vector<i32>(m.cores.size(), 0));
  EXPECT_EQ(ps.readout_cycle, C - 1);
  EXPECT_NE(ps.serial_reason, map::SerialReason::None);
}

TEST(PipelineAnalysisTest, SingleAccHandComputed) {
  // One ACC at cycle 0, C = 140, T = 2. Nothing depends on the ACC result,
  // so every hazard is satisfied at the window floor: the readout node sits
  // at C-1 = 139 and must fall inside [0, 2*II), flooring the search at
  // II = ceil((C+1)/2) = 71. Depth is the overlap C - II = 69, the ACC keeps
  // its serial slot (full slack), and the span stays one serial timestep
  // (readout at 139 + 1).
  map::MappedNetwork m = tiny(140, 2);
  push(m, 0, AtomicOp::acc());
  const map::PipelineSchedule ps = map::build_pipeline(m);
  ASSERT_LT(ps.ii, 140);  // overlapped, not the serial II = C schedule
  EXPECT_EQ(ps.ii, 71);
  EXPECT_EQ(ps.depth, 69);
  EXPECT_EQ(ps.span, 140);
  ASSERT_EQ(ps.op_cycle.size(), 1u);
  EXPECT_EQ(ps.op_cycle[0], 0);
  EXPECT_EQ(slack_of(ps, m)[0], ps.depth);
  EXPECT_EQ(ps.acc_latency, 131);
  EXPECT_EQ(ps.serial_reason, map::SerialReason::None);
  ASSERT_EQ(ps.rotate_cycle.size(), 1u);
  EXPECT_EQ(ps.rotate_cycle[0], 0);
  EXPECT_EQ(ps.readout_cycle, 139);
}

TEST(PipelineAnalysisTest, AccConsumerDelayedPastSerialSlot) {
  // Same program plus a PS eject at cycle 1 reading the local PS file the
  // ACC commits 131 cycles after issue. The serial schedule is invalid as a
  // pipelined one (the read would see a half-written file), so the analysis
  // must delay the eject to the commit: d = 0 + 131 - 1 = 130, issue cycle
  // 1 + 130 = 131, slack = depth - d = 69 - 130 = -61 — negative slack
  // meaning the op runs past its serial slot. II and depth are unchanged:
  // the delayed eject (cycle 131, +0 commit delay) still fits the window.
  map::MappedNetwork m = tiny(140, 2);
  push(m, 0, AtomicOp::acc());
  push(m, 1, AtomicOp::ps_eject(/*fromSumBuf=*/false));
  const map::PipelineSchedule ps = map::build_pipeline(m);
  ASSERT_LT(ps.ii, 140);  // overlapped, not the serial II = C schedule
  EXPECT_EQ(ps.ii, 71);
  EXPECT_EQ(ps.depth, 69);
  EXPECT_EQ(ps.span, 140);
  ASSERT_EQ(ps.op_cycle.size(), 2u);
  EXPECT_EQ(ps.op_cycle[0], 0);
  EXPECT_EQ(ps.op_cycle[1], 131);
  EXPECT_EQ(slack_of(ps, m), (std::vector<i32>{69, -61}));
}

TEST(PipelineAnalysisTest, DisjointPlanesShareAnIssueSlot) {
  // Three PS-router ops on one core, C = 140, T = 2, so II = 71 as above.
  // Ops 0 and 1 eject the two halves of the local PS file in one cycle:
  // disjoint planes, one (core, block, cycle) slot, which check_routes
  // allows and the modulo schedule keeps. Op 2 sums into planes [0, 128)
  // at cycle 71, one II after op 0 on intersecting planes: iterations k and
  // k+1 would issue both on one plane in one cycle, so it moves to 72.
  map::MappedNetwork m = tiny(140, 2);
  const PlaneMask lo = PlaneMask::first_n(128);
  push(m, 0, AtomicOp::ps_eject(/*fromSumBuf=*/false), lo);
  push(m, 0, AtomicOp::ps_eject(/*fromSumBuf=*/false), ~lo);
  push(m, 71, AtomicOp::ps_sum(Dir::North, /*consec=*/false), lo);
  ASSERT_TRUE(map::check_routes(m).is_ok());
  const map::PipelineSchedule ps = map::build_pipeline(m);
  EXPECT_EQ(ps.serial_reason, map::SerialReason::None);
  EXPECT_EQ(ps.ii, 71);
  EXPECT_EQ(ps.op_cycle, (std::vector<i32>{0, 0, 72}));
  EXPECT_TRUE(map::check_routes(unroll_two(m, ps)).is_ok());
}

TEST(PipelineAnalysisTest, SingleTimestepFrameStaysSerial) {
  // With one timestep and no layer-pipelining drain there is no adjacent
  // iteration to overlap with; the analysis returns the serial schedule.
  map::MappedNetwork m = tiny(140, 1);
  push(m, 0, AtomicOp::acc());
  const map::PipelineSchedule ps = map::build_pipeline(m);
  expect_serial_schedule(ps, m);
  EXPECT_EQ(ps.serial_reason, map::SerialReason::ShortFrame);
}

TEST(PipelineAnalysisTest, NoIIInRangeStaysSerial) {
  // C = 2 leaves the search range [ceil((C+1)/2), C-1] = [2, 1] empty: the
  // two-iteration window floor already excludes II = C-1, so the serial
  // schedule comes back without a probe.
  map::MappedNetwork m = tiny(2, 4);
  push(m, 0, AtomicOp::ps_eject(/*fromSumBuf=*/false));
  const map::PipelineSchedule ps = map::build_pipeline(m);
  expect_serial_schedule(ps, m);
  EXPECT_EQ(ps.serial_reason, map::SerialReason::WindowOverflow);
}

TEST(PipelineAnalysisTest, PipelineFlagOffStaysSerial) {
  // The SingleAccHandComputed program, which overlaps at II = 71 with
  // pipelining on, gets the serial schedule when the mapping turns it off.
  map::MappedNetwork m = tiny(140, 2);
  m.pipeline = 0;
  push(m, 0, AtomicOp::acc());
  const map::PipelineSchedule ps = map::build_pipeline(m);
  expect_serial_schedule(ps, m);
  EXPECT_EQ(ps.serial_reason, map::SerialReason::FlagOff);
}

/// The Table-III(b) MNIST CNN (cnn = true) or MLP, converted on one blank
/// calibration image and mapped on the paper arch at opt level 1.
map::MappedNetwork mapped_mnist(bool cnn, snn::SnnNetwork& net) {
  nn::Model model = cnn ? harness::make_mnist_cnn() : harness::make_mnist_mlp();
  Rng rng(5);
  model.init_weights(rng);
  nn::Dataset d;
  d.sample_shape = model.input_shape();
  d.images.emplace_back(model.input_shape());
  d.labels.push_back(0);
  net = snn::convert(model, d, snn::ConvertConfig{});
  map::MapperConfig mc;
  mc.opt_level = 1;
  return map::map_network(net, mc);
}

TEST(PipelineAnalysisTest, SerialReasonNamesTheFailedCheck) {
  // Both MNIST nets overlap: their schedules carry no serial reason, and
  // two unrolled iterations keep check_routes' issue rule.
  for (const bool cnn : {false, true}) {
    SCOPED_TRACE(cnn ? "MNIST CNN" : "MNIST MLP");
    snn::SnnNetwork net;
    const map::MappedNetwork mapped = mapped_mnist(cnn, net);
    const map::PipelineSchedule ps = map::build_pipeline(mapped);
    EXPECT_EQ(ps.serial_reason, map::SerialReason::None);
    EXPECT_LT(ps.ii, static_cast<i32>(mapped.cycles_per_timestep));
    EXPECT_TRUE(map::check_routes(unroll_two(mapped, ps)).is_ok());
  }
  // An ACC in the last cycle of a C = 100 timestep commits at 99 + 131,
  // past the window [0, 2*II) of the loosest candidate II = 99: the serial
  // schedule names the window. A positive hazard cycle ends the same way,
  // each lap raising its delays until one leaves the window.
  map::MappedNetwork m = tiny(100, 4);
  push(m, 99, AtomicOp::acc());
  const map::PipelineSchedule ps = map::build_pipeline(m);
  expect_serial_schedule(ps, m);
  EXPECT_EQ(ps.serial_reason, map::SerialReason::WindowOverflow);
}

TEST(PipelineProgramTest, SlackFlowsToExecProgram) {
  // End to end on a real mapping: the lowered ExecProgram carries the
  // engine's schedule (slack per op, overlap depth) — overlapped when the
  // mapping was compiled with pipelining on, the all-zero serial schedule
  // when it was not.
  nn::Model model({64}, "pipe-prog");
  model.dense(64, 24);
  model.relu();
  model.dense(24, 10);
  Rng rng(11);
  model.init_weights(rng);
  nn::Dataset d;
  d.sample_shape = {64};
  d.num_classes = 10;
  Tensor x({64});
  x.fill_uniform(rng, 0.0f, 1.0f);
  d.images.push_back(std::move(x));
  d.labels.push_back(0);
  snn::ConvertConfig cc;
  cc.timesteps = 4;
  const snn::SnnNetwork net = snn::convert(model, d, cc);

  for (i32 pipe = 0; pipe <= 1; ++pipe) {
    SCOPED_TRACE("pipeline " + std::to_string(pipe));
    map::MapperConfig mc;
    mc.pipeline = pipe;
    const map::MappedNetwork mapped = map::map_network(net, mc);
    ASSERT_EQ(mapped.pipeline, pipe);
    const sim::Engine engine(mapped, net);
    const map::PipelineSchedule& run = engine.model().pipeline();
    const map::PipelineSchedule ps = map::build_pipeline(mapped);
    EXPECT_EQ(run.ii, ps.ii);
    EXPECT_EQ(run.depth, ps.depth);
    ASSERT_EQ(run.op_cycle.size(), mapped.schedule.size());
    EXPECT_EQ(run.op_cycle, ps.op_cycle);
    const std::vector<i32> slack = slack_of(run, mapped);
    if (pipe == 0) {
      EXPECT_EQ(ps.ii, static_cast<i32>(mapped.cycles_per_timestep));
      EXPECT_EQ(run.depth, 0);
      EXPECT_EQ(slack, std::vector<i32>(mapped.schedule.size(), 0));
      continue;
    }
    ASSERT_LT(ps.ii, static_cast<i32>(mapped.cycles_per_timestep));
    // Slack is bounded by the overlap depth, and by the window: an op never
    // issues at or past the end of the two-iteration window.
    for (usize i = 0; i < slack.size(); ++i) {
      EXPECT_LE(slack[i], ps.depth) << "op " << i;
      EXPECT_LT(ps.op_cycle[i], 2 * ps.ii) << "op " << i;
    }
  }
  // The flag is 0 or 1; nothing else (no "read the environment" value).
  for (const i32 pipe : {-1, 2}) {
    map::MapperConfig mc;
    mc.pipeline = pipe;
    EXPECT_THROW(map::map_network(net, mc), InvalidArgument) << pipe;
  }
}

}  // namespace
}  // namespace sj
