// ShardPlan: the chip-level partition of a lowered ExecProgram.
//
// Shenjing scales by tiling 28x28-core chips and paying explicit wire energy
// on the links that cross a chip boundary (paper §III). This plan cuts a
// program's op stream along those boundaries and counts how often a
// chip-by-chip replay of the frame would have to exchange cross-chip
// writes: `num_phases`. Nothing replays a frame that way any more — the
// frame loop runs every chip's ops in one sequence, the inter-chip energy
// comes from the topology's `interchip` links, and placement search ranks
// candidates by crossings and cycles. The plan is still built at engine
// compile (sim::CompiledModel::shard_plan()) only because the repository
// benchmark (perfbench/) reports `num_phases` and `num_shards()`; it goes
// when the benchmark stops reading them.
//
// The cut follows the locality the two-phase NoC already enforces:
//
//   * every op reads and writes only the registers of its own tile (core
//     state, router sum/eject/spike files, input-port registers), plus
//   * at most one *staged* write onto its pre-resolved outgoing link, which
//     becomes visible at the next cycle commit.
//
// Partitioning ops by the chip of their core therefore leaves exactly one
// coupling between shards: staged writes whose link crosses a chip
// boundary. An op is a *hazard* when it reads an input-port register that
// such a cross-shard send can feed; `num_phases` is one plus the number of
// non-zero schedule cycles that hold a hazard.
#pragma once

#include <vector>

#include "mapper/exec_program.h"

namespace sj::map {

/// Shard index of cores the program never touches (untouched chips).
inline constexpr u32 kNoShard = ~u32{0};

/// The per-chip-shard decomposition of one lowered program. Immutable after
/// build, shared read-only like ExecProgram.
struct ShardPlan {
  struct Shard {
    /// Linear chip cell (chip_row * chips_across + chip_col) this shard owns.
    u32 chip = 0;
  };

  std::vector<Shard> shards;
  /// core -> shard index owning its chip (kNoShard on untouched chips).
  std::vector<u32> shard_of_core;
  /// Phases per schedule replay: one plus the number of non-zero schedule
  /// cycles that hold a hazard op (>= 1).
  u32 num_phases = 1;

  usize num_shards() const { return shards.size(); }
};

/// Partitions `prog` (lowered from `m` against `topo`, see lower_program)
/// along chip boundaries. Deterministic: shards are ordered by linear chip
/// cell.
ShardPlan build_shard_plan(const MappedNetwork& m, const noc::NocTopology& topo,
                           const ExecProgram& prog);

}  // namespace sj::map
