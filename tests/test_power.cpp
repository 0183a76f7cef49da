// Power/timing/area model tests: Table II self-consistency, the MNIST-MLP
// calibration bands of §IV (120 kHz / 1.26-1.35 mW), Fig. 5 linearity, and
// op-census bookkeeping.
#include <gtest/gtest.h>

#include "mapper/mapper.h"
#include "nn/dataset.h"
#include "power/comparison.h"
#include "power/power.h"
#include "snn/convert.h"

namespace sj::power {
namespace {

using core::EnergyOp;

TEST(EnergyTable, MatchesTableIIPowerColumn) {
  // Table II lists both active power @120 kHz and pJ/neuron; they are
  // related by P = 256 * E / (cycles / f). Verify every row within 3 %
  // (the paper's own rounding).
  const EnergyTable et = EnergyTable::paper();
  const struct {
    EnergyOp op;
    double paper_mw;
  } rows[] = {
      {EnergyOp::PsSum, 0.0383},    {EnergyOp::PsSend, 0.0443},
      {EnergyOp::PsBypass, 0.0455}, {EnergyOp::SpkSpike, 0.0689},
      {EnergyOp::SpkSend, 0.0721},  {EnergyOp::SpkBypass, 0.0381},
      {EnergyOp::NeuronAcc, 0.0412}, {EnergyOp::NeuronLdWt, 0.0568},
  };
  for (const auto& row : rows) {
    const double got_mw = et.active_power_at_ref(row.op) * 1e3;
    EXPECT_NEAR(got_mw, row.paper_mw, row.paper_mw * 0.03)
        << "op " << static_cast<int>(row.op);
  }
}

TEST(EnergyTable, CyclesPerOp) {
  const EnergyTable et;
  EXPECT_EQ(et.cycles(EnergyOp::NeuronAcc), 131);
  EXPECT_EQ(et.cycles(EnergyOp::NeuronLdWt), 131);
  EXPECT_EQ(et.cycles(EnergyOp::PsSum), 1);
  EXPECT_EQ(et.cycles(EnergyOp::SpkSpike), 1);
}

struct MlpFixture : public ::testing::Test {
  static const snn::SnnNetwork& net() {
    static const snn::SnnNetwork n = [] {
      Rng rng(101);
      nn::Model model({28, 28, 1}, "mlp");
      model.flatten();
      model.dense(784, 512);
      model.relu();
      model.dense(512, 10);
      model.init_weights(rng);
      const nn::Dataset calib = nn::make_synth_digits(24, {.seed = 4});
      snn::ConvertConfig cc;
      cc.timesteps = 20;
      return snn::convert(model, calib, cc);
    }();
    return n;
  }
  static const map::MappedNetwork& mapped() {
    static const map::MappedNetwork m = map::map_network(net());
    return m;
  }
};

TEST_F(MlpFixture, FrequencyNearPaper120kHz) {
  // §IV: MNIST-MLP at 40 fps needs ~120 kHz (3000 cycles/frame).
  const PowerReport r = estimate(mapped(), 40.0);
  EXPECT_NEAR(r.freq_hz, 120e3, 20e3);
  EXPECT_EQ(r.cycles_per_frame, 20ull * mapped().cycles_per_timestep);
  EXPECT_TRUE(r.freq_feasible);
}

TEST_F(MlpFixture, PowerInPaperBand) {
  // Paper: 1.26 mW (RTL) / 1.35 mW (functional sim); our model must land in
  // the same regime (0.7 .. 2.0 mW) with power/core near 0.135 mW.
  const PowerReport r = estimate(mapped(), 40.0);
  EXPECT_GT(r.total_w, 0.7e-3);
  EXPECT_LT(r.total_w, 2.0e-3);
  EXPECT_GT(r.power_per_core_w, 0.07e-3);
  EXPECT_LT(r.power_per_core_w, 0.20e-3);
  EXPECT_EQ(r.cores, 10);
  // mJ/frame: paper reports 0.038 for the MLP.
  EXPECT_GT(r.energy_per_frame_j, 0.010e-3);
  EXPECT_LT(r.energy_per_frame_j, 0.060e-3);
  // Composition adds up.
  EXPECT_NEAR(r.total_w, r.dynamic_w + r.leakage_w + r.interchip_w, 1e-12);
  EXPECT_EQ(r.interchip_w, 0.0);  // single chip
  EXPECT_GT(r.init_energy_j, 0.0);
}

TEST_F(MlpFixture, Fig5TradeoffIsLinearInFps) {
  const std::vector<double> fps = {24, 30, 35, 40, 48, 60};
  const auto pts = throughput_tradeoff(mapped(), fps);
  ASSERT_EQ(pts.size(), 6u);
  // Frequency strictly proportional to fps.
  for (usize i = 0; i < pts.size(); ++i) {
    EXPECT_NEAR(pts[i].freq_hz / pts[i].fps, pts[0].freq_hz / pts[0].fps, 1.0);
  }
  // Tile power increases affinely: equal fps increments -> equal deltas.
  const double d1 = pts[3].tile_power_w - pts[1].tile_power_w;  // 40-30
  const double d2 = pts[1].tile_power_w - pts[0].tile_power_w;  // 30-24
  EXPECT_NEAR(d1 / 10.0, d2 / 6.0, 1e-9);
  // Paper band check at 40 fps: 120 kHz / 181 uW-per-tile regime.
  EXPECT_GT(pts[3].tile_power_w, 50e-6);
  EXPECT_LT(pts[3].tile_power_w, 300e-6);
}

TEST_F(MlpFixture, TradeoffMatchesEstimateOnBothSchedules) {
  // Both schedules: MapperConfig::pipeline only stamps
  // MappedNetwork::pipeline, so re-stamping a copy is the same compile.
  const std::vector<double> fps = {24, 30, 40, 60};
  for (const i32 pipe : {0, 1}) {
    SCOPED_TRACE("pipeline " + std::to_string(pipe));
    map::MappedNetwork m = mapped();
    m.pipeline = pipe;
    const auto pts = throughput_tradeoff(m, fps);
    ASSERT_EQ(pts.size(), fps.size());
    for (usize i = 0; i < pts.size(); ++i) {
      const PowerReport at = estimate(m, fps[i]);
      EXPECT_EQ(pts[i].freq_hz, at.freq_hz) << "fps " << fps[i];
      EXPECT_EQ(pts[i].tile_power_w, at.power_per_core_w) << "fps " << fps[i];
    }
  }
}

TEST_F(MlpFixture, CensusCountsAccPerCore) {
  const OpCensus c = OpCensus::from(mapped());
  EXPECT_EQ(c.active_cores, 10);
  // ACC issues sum the allocated neurons of every core: 8 x 256 + 2 x ...
  const i64 acc = c.op_neurons[static_cast<usize>(EnergyOp::NeuronAcc)];
  EXPECT_GT(acc, 8 * 256);
  EXPECT_LE(acc, 10 * 256);
  EXPECT_GT(c.op_neurons[static_cast<usize>(EnergyOp::PsSum)], 0);
  EXPECT_GT(c.op_neurons[static_cast<usize>(EnergyOp::SpkSpike)], 0);
  EXPECT_EQ(c.interchip_ps_bits, 0);
  EXPECT_EQ(c.ldwt_neurons, acc);  // LD_WT covers the same neurons once
}

TEST_F(MlpFixture, ActivityScalingAblation) {
  // EXP-A3: with the activity-dependent ACC fraction enabled, lower
  // activity means lower power, and ref activity reproduces the baseline.
  PowerParams base;
  const double p0 = estimate(mapped(), 40.0, base).total_w;
  PowerParams scaled = base;
  scaled.acc_activity_fraction = 0.7;
  scaled.switching_activity = base.energy.ref_activity;
  EXPECT_NEAR(estimate(mapped(), 40.0, scaled).total_w, p0, p0 * 1e-9);
  scaled.switching_activity = base.energy.ref_activity / 4.0;
  EXPECT_LT(estimate(mapped(), 40.0, scaled).total_w, p0);
  scaled.switching_activity = base.energy.ref_activity * 4.0;
  EXPECT_GT(estimate(mapped(), 40.0, scaled).total_w, p0);
}

TEST_F(MlpFixture, InfeasibleFrequencyFlagged) {
  const PowerReport r = estimate(mapped(), 1e8);
  EXPECT_FALSE(r.freq_feasible);
  EXPECT_THROW(estimate(mapped(), 0.0), InvalidArgument);
}

TEST_F(MlpFixture, AreaReport) {
  const AreaReport a = area(mapped());
  EXPECT_EQ(a.tiles, 10);
  EXPECT_NEAR(a.tile_mm2, 0.49, 1e-9);
  EXPECT_NEAR(a.chip_mm2, 0.49 * 784, 1e-6);
  EXPECT_NEAR(a.system_mm2, 4.9, 1e-6);
  EXPECT_NEAR(a.router_fraction + a.sram_fraction, 0.83, 1e-9);
}

TEST(Comparison, TableVRows) {
  const auto rows = table5_literature();
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].architecture.substr(0, 5), "SNNwt");
  for (const auto& r : rows) EXPECT_FALSE(r.measured_here);
  const auto us = table5_paper_shenjing();
  EXPECT_EQ(us.tech_nm, 28);
  EXPECT_NEAR(us.accuracy, 0.9611, 1e-9);
}

}  // namespace
}  // namespace sj::power
