#include "power/power.h"

#include "mapper/exec_program.h"

namespace sj::power {

using core::EnergyOp;

double EnergyTable::energy(EnergyOp op) const {
  switch (op) {
    case EnergyOp::PsSum: return ps_sum;
    case EnergyOp::PsSend: return ps_send;
    case EnergyOp::PsBypass: return ps_bypass;
    case EnergyOp::SpkSpike: return spk_spike;
    case EnergyOp::SpkSend: return spk_send;
    case EnergyOp::SpkBypass: return spk_bypass;
    case EnergyOp::NeuronAcc: return acc;
    case EnergyOp::NeuronLdWt: return ld_wt;
  }
  return 0.0;
}

i32 EnergyTable::cycles(EnergyOp op) const {
  return (op == EnergyOp::NeuronAcc || op == EnergyOp::NeuronLdWt) ? acc_cycles : 1;
}

double EnergyTable::active_power_at_ref(EnergyOp op) const {
  const double t = static_cast<double>(cycles(op)) / ref_freq_hz;
  return 256.0 * energy(op) / t;
}

OpCensus OpCensus::from(const map::MappedNetwork& m) {
  // The lowered program's static census is the one the engine adds to its
  // SimStats every frame, so static estimates and measured execution
  // statistics cannot drift apart.
  const map::StaticCensus s = map::lower_program(m, map::make_topology(m)).census;
  OpCensus c;
  c.op_neurons = s.op_neurons;
  c.interchip_ps_bits = s.interchip_ps_bits;
  c.interchip_spike_bits = s.interchip_spike_bits;
  c.ldwt_neurons = s.ldwt_neurons;
  for (const auto& core : m.cores) c.active_cores += core.filler ? 0 : 1;
  return c;
}

namespace {

PowerReport estimate_census(const map::MappedNetwork& m, double target_fps,
                            const OpCensus& census, const PowerParams& params) {
  SJ_REQUIRE(target_fps > 0.0, "estimate: fps must be positive");
  const EnergyTable& et = params.energy;

  PowerReport r;
  r.fps = target_fps;
  r.cores = census.active_cores;
  r.cycles_per_frame = static_cast<u64>(m.timesteps) * m.cycles_per_timestep;
  r.freq_hz = target_fps * static_cast<double>(r.cycles_per_frame);
  r.freq_feasible = r.freq_hz <= m.arch.max_freq_hz;

  // Dynamic energy per timestep from the static op census.
  double e_ts = 0.0;
  for (int op = 0; op < 8; ++op) {
    double e = et.energy(static_cast<EnergyOp>(op));
    if (static_cast<EnergyOp>(op) == EnergyOp::NeuronAcc &&
        params.acc_activity_fraction > 0.0) {
      const double f = params.acc_activity_fraction;
      e *= (1.0 - f) + f * params.switching_activity / et.ref_activity;
    }
    e_ts += e * static_cast<double>(census.op_neurons[static_cast<usize>(op)]);
  }
  const double timesteps_per_s = target_fps * static_cast<double>(m.timesteps);
  r.dynamic_w = e_ts * timesteps_per_s;
  r.leakage_w = params.tile_leakage_w * static_cast<double>(census.active_cores);
  r.interchip_w =
      static_cast<double>(census.interchip_ps_bits + census.interchip_spike_bits) *
      params.interchip_j_per_bit * timesteps_per_s;
  r.total_w = r.dynamic_w + r.leakage_w + r.interchip_w;
  r.power_per_core_w = r.total_w / static_cast<double>(std::max<i64>(1, census.active_cores));
  r.energy_per_frame_j = r.total_w / target_fps;
  r.init_energy_j = static_cast<double>(census.ldwt_neurons) * et.ld_wt;
  return r;
}

}  // namespace

PowerReport estimate(const map::MappedNetwork& m, double target_fps,
                     const PowerParams& params) {
  return estimate_census(m, target_fps, OpCensus::from(m), params);
}

PowerReport estimate_measured(const map::MappedNetwork& m, double target_fps,
                              const noc::TrafficCounters& traffic, i64 iterations,
                              const PowerParams& params) {
  SJ_REQUIRE(iterations > 0, "estimate_measured: no iterations observed");
  OpCensus census = OpCensus::from(m);
  // Replace the static crossing census with the per-timestep average of the
  // traffic actually observed on inter-chip links. The schedule repeats
  // every timestep, so the measured totals are exact multiples.
  census.interchip_ps_bits = traffic.interchip_ps_bits / iterations;
  census.interchip_spike_bits = traffic.interchip_spike_bits / iterations;
  return estimate_census(m, target_fps, census, params);
}

std::vector<TradeoffPoint> throughput_tradeoff(const map::MappedNetwork& m,
                                               const std::vector<double>& fps_list,
                                               const PowerParams& params) {
  std::vector<TradeoffPoint> pts;
  pts.reserve(fps_list.size());
  // fps-independent: compute once
  const OpCensus census = OpCensus::from(m);
  for (const double fps : fps_list) {
    const PowerReport r = estimate_census(m, fps, census, params);
    TradeoffPoint p;
    p.fps = fps;
    p.freq_hz = r.freq_hz;
    p.tile_power_w = r.total_w / static_cast<double>(std::max<i64>(1, r.cores));
    pts.push_back(p);
  }
  return pts;
}

AreaReport area(const map::MappedNetwork& m) {
  AreaReport a;
  for (const auto& c : m.cores) {
    if (!c.filler) ++a.tiles;
  }
  a.chip_mm2 = a.tile_mm2 * static_cast<double>(m.arch.chip_capacity());
  a.system_mm2 = a.tile_mm2 * static_cast<double>(a.tiles);
  return a;
}

}  // namespace sj::power
