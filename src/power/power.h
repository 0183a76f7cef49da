// Architectural power, timing and area model (paper §IV and §V).
//
// Follows the paper's own methodology: "Active power is estimated by
// multiplying the synthesized active energy numbers per atomic operation
// (Table II) with the count of each atomic operation obtained from our
// functional simulator and dividing the sum by running time." Because
// Shenjing's schedules are fully software-defined, every timestep issues the
// identical operation stream, so the per-timestep op census is a static
// property of the compiled schedule: map::lower_program counts it once
// (map::StaticCensus), the engine adds it to SimStats per frame and OpCensus
// reads it here. On top of the active energy we add
// per-tile leakage (the intercept of Fig. 5's linear power/frequency
// relation) and 4.4 pJ/bit for inter-chip I/O [ISSCC'16 SerDes].
#pragma once

#include <array>
#include <vector>

#include "core/isa.h"
#include "mapper/program.h"

namespace sj::power {

/// Table II: per-neuron active energy of each atomic operation, plus the
/// reference conditions under which they were synthesized.
struct EnergyTable {
  // Joules per neuron per issued op (Table II, pJ column).
  double ps_sum = 1.25e-12;
  double ps_send = 1.44e-12;
  double ps_bypass = 1.48e-12;
  double spk_spike = 2.24e-12;
  double spk_send = 2.35e-12;
  double spk_bypass = 1.24e-12;
  double acc = 171.67e-12;
  double ld_wt = 236.67e-12;
  // Reference conditions of the synthesis run.
  double ref_freq_hz = 120e3;
  double ref_activity = 0.0625;  // MNIST-MLP average spiking axons
  i32 acc_cycles = 131;          // ACC/LD_WT occupy 131 cycles, others 1

  double energy(core::EnergyOp op) const;
  /// Cycles an op occupies (Table II footnote 2).
  i32 cycles(core::EnergyOp op) const;
  /// Active power of one 256-neuron block issuing `op` back-to-back at the
  /// reference frequency — reproduces Table II's mW column:
  /// P = 256 * E / (cycles / f_ref).
  double active_power_at_ref(core::EnergyOp op) const;

  static EnergyTable paper() { return EnergyTable{}; }
};

/// Model parameters beyond Table II.
struct PowerParams {
  EnergyTable energy = EnergyTable::paper();
  /// Per-tile leakage: intercept of the linear fit of Fig. 5
  /// (P(f) ~ 74.1 uW + 0.889 uW/kHz * f for one tile under MNIST-MLP).
  double tile_leakage_w = 74.1e-6;
  double interchip_j_per_bit = 4.4e-12;
  /// EXP-A3 ablation: when > 0, ACC energy is scaled by
  /// (1 - f) + f * activity / ref_activity, modelling the data-dependent
  /// fraction of the accumulator energy. 0 reproduces the paper's method.
  double acc_activity_fraction = 0.0;
  double switching_activity = 0.0625;  // used when the fraction is enabled
};

/// Static per-timestep operation census of a compiled schedule, read from
/// its lowered program's map::StaticCensus.
struct OpCensus {
  std::array<i64, 8> op_neurons{};  // indexed by core::EnergyOp
  i64 interchip_ps_bits = 0;        // bits crossing chip boundaries / timestep
  i64 interchip_spike_bits = 0;
  i64 ldwt_neurons = 0;             // one-off initialization census
  i64 active_cores = 0;             // non-filler tiles

  static OpCensus from(const map::MappedNetwork& m);
};

/// Everything Table IV reports for one application, plus breakdowns.
struct PowerReport {
  double fps = 0.0;
  double freq_hz = 0.0;            // required clock: fps * T * cycles/timestep
  u64 cycles_per_frame = 0;        // steady-state (pipelined): T * L
  double dynamic_w = 0.0;
  double leakage_w = 0.0;
  double interchip_w = 0.0;
  double total_w = 0.0;
  double power_per_core_w = 0.0;
  double energy_per_frame_j = 0.0;
  double init_energy_j = 0.0;      // LD_WT, once per deployment
  i64 cores = 0;
  bool freq_feasible = true;       // freq <= architecture max
};

/// Estimates power for running `m` at `target_fps` frames per second.
/// Inter-chip energy comes from the static op census routed over the NoC
/// fabric (links whose endpoints lie on different chips).
PowerReport estimate(const map::MappedNetwork& m, double target_fps,
                     const PowerParams& params = {});

/// Like estimate(), but inter-chip energy is derived from *measured*
/// per-link traffic (noc::TrafficCounters accumulated by the simulator over
/// `iterations` hardware timesteps) instead of the static census. Because
/// Shenjing replays the identical schedule every timestep, the two agree on
/// a correct simulator — benches assert exactly that.
PowerReport estimate_measured(const map::MappedNetwork& m, double target_fps,
                              const noc::TrafficCounters& traffic, i64 iterations,
                              const PowerParams& params = {});

/// Fig. 5: clock frequency and per-tile power across a throughput sweep.
struct TradeoffPoint {
  double fps = 0.0;
  double freq_hz = 0.0;
  double tile_power_w = 0.0;  // average over active tiles
};
std::vector<TradeoffPoint> throughput_tradeoff(const map::MappedNetwork& m,
                                               const std::vector<double>& fps_list,
                                               const PowerParams& params = {});

/// Area model (§IV): per-tile cell area and composition, chip/system totals.
struct AreaReport {
  double tile_mm2 = 0.49;
  double router_fraction = 0.39;
  double sram_fraction = 0.44;
  double logic_gates_m = 0.262;  // millions of gates per tile
  i64 tiles = 0;
  double chip_mm2 = 0.0;    // 784 tiles
  double system_mm2 = 0.0;  // active tiles only
};
AreaReport area(const map::MappedNetwork& m);

}  // namespace sj::power
