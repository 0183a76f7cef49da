// The Shenjing software mapping toolchain (paper §III, Fig. 3).
//
// map_network() performs both phases of the paper's flow:
//
//  Logical mapping
//   * Fully connected edges: nrow x ncol core rectangles; partial sums folded
//     to row 0 with the recursive-halving schedule of Algorithm 1.
//   * Convolution edges: Fig. 4 input tiling (tile side <= 16 - 2*pad so a
//     core's (tile + halo) output window fits 256 neurons), halo partial sums
//     exchanged between neighboring tiles, then channel partial sums folded
//     across the cin cores of each (tile, cout) column. Output planes use the
//     global modular pattern plane(y,x) = (y mod 16)*16 + (x mod 16) — the
//     paper's "inter-changing pattern of neuron allocation" — so exchanged
//     partial sums meet at equal plane indices everywhere.
//   * Average pooling: one core per (channel, input region); output planes
//     are packed at per-core offsets so multiple pool cores can feed one
//     downstream FC core ("map the output of multiple cores to different
//     non-overlapping neurons", §III).
//   * ResNet shortcuts: the Diag normalization edge becomes a row of
//     normalization cores whose partial sums join the block-output fold
//     (§III.3); their inputs are held one extra timestep to keep both
//     residual paths time-aligned.
//
//  Physical mapping
//   * Greedy shelf placement of unit rectangles onto a grid of 28x28-tile
//     chips, counting the chips actually touched.
//   * Deterministic XY routing with compile-time wait-on-busy link
//     scheduling (mapper/schedule.h) producing the cycle-by-cycle atomic-op
//     schedule of Table I.
#pragma once

#include "mapper/program.h"

namespace sj::map {

struct MapperConfig {
  ArchParams arch = ArchParams::paper();
  /// Physical grid width in tiles; 0 = choose automatically (a multiple of
  /// the chip width that fits the widest unit).
  i32 grid_width = 0;
  /// Optimizer level (mapper/opt): 0 greedy only, 1 schedule passes
  /// (coalesce, repack), 2 adds placement search. -1 = read the
  /// SHENJING_OPT environment variable (default 1).
  i32 opt_level = -1;
  /// Evaluation budget for the level-2 placement search; 0 = automatic
  /// (6 to 48 evaluations, scaled down with schedule size). No environment
  /// variable changes the budget.
  i32 placement_evals = 0;
  /// Cross-timestep engine pipelining (mapper/pipeline.h): 0 the serial
  /// II = C schedule, 1 overlap adjacent timesteps where feasible. Other
  /// values are rejected.
  i32 pipeline = 1;
};

/// Maps a converted SNN onto Shenjing hardware. Throws MappingError when the
/// network does not fit the supported patterns or the hardware limits.
MappedNetwork map_network(const snn::SnnNetwork& net, const MapperConfig& cfg = {});

/// Per-unit core-count summary used by reports (Fig. 1 / Table IV).
struct UnitCoreCount {
  std::string unit_name;
  i32 cores = 0;
  i32 rows = 0, cols = 0;
};
std::vector<UnitCoreCount> core_census(const MappedNetwork& m, const snn::SnnNetwork& net);

}  // namespace sj::map
