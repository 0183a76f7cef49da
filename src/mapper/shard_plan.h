// ShardPlan: the chip-level partition of a lowered ExecProgram.
//
// Shenjing scales by tiling 28x28-core chips and paying explicit wire energy
// on the links that cross a chip boundary (paper §III); SpiNNaker-class
// systems distribute one network across processing elements the same way.
// This plan cuts a CompiledModel's op stream along those boundaries so one
// *frame* can fan out over threads — pipeline parallelism within a frame,
// complementing the batch engine's parallelism across frames.
//
// The cut exploits the locality the two-phase NoC already enforces:
//
//   * every op reads and writes only the registers of its own tile (core
//     state, router sum/eject/spike files, input-port registers), plus
//   * at most one *staged* write onto its pre-resolved outgoing link, which
//     becomes visible at the next cycle commit.
//
// Partitioning ops by the chip of `op.core` therefore leaves exactly one
// coupling between shards: staged writes whose link crosses a chip boundary
// (`ExecOp::cross_shard`, stamped on the program's own ops). Those become the
// explicit inter-shard exchange — each shard stages them into a private
// outbox and they are committed at a shard barrier.
//
// One rule places the barriers. An op is a *hazard* when it reads an
// input-port register that some cross-shard send can feed; the deferral
// stays invisible if a barrier sits before every cycle that holds a hazard.
// The engine cuts its sharded frame ranges (sim::PipeRange) at the
// pipelined cycles of `hazard_ops`; `num_phases` counts the same cuts on the
// timestep schedule, so on the serial II = C schedule a sharded frame runs
// exactly (T + output_depth) * num_phases ranges. It is the exchange
// pressure placement search minimizes.
#pragma once

#include <vector>

#include "mapper/exec_program.h"

namespace sj::map {

/// Shard index of cores the program never touches (untouched chips).
inline constexpr u32 kNoShard = ~u32{0};

/// The per-chip-shard decomposition of one lowered program. Immutable after
/// build, shared read-only by every execution context (like ExecProgram).
struct ShardPlan {
  struct Shard {
    /// Linear chip cell (chip_row * chips_across + chip_col) this shard owns.
    u32 chip = 0;
    /// Number of the program's ops issued on this shard's chip.
    i64 num_ops = 0;
    /// Number of staged sends that leave the shard (per full schedule
    /// replay) — the exchange volume a scheduler can weigh shards by.
    i64 cross_sends = 0;
  };

  std::vector<Shard> shards;
  /// core -> shard index owning its chip (kNoShard on untouched chips).
  std::vector<u32> shard_of_core;
  /// Indices into the program's ops that read a port some cross-shard send
  /// can feed, ascending. A barrier goes before each one's cycle.
  std::vector<u32> hazard_ops;
  /// Phases per schedule replay: one plus the number of non-zero schedule
  /// cycles that hold a hazard op (>= 1).
  u32 num_phases = 1;

  usize num_shards() const { return shards.size(); }

  /// Static shard -> worker assignment for a team of `workers` (>= 1):
  /// longest-processing-time greedy over a per-shard weight of num_ops plus
  /// cross_sends, so on asymmetric chips the busy shards spread across
  /// workers instead of piling onto one. Returns shard-indexed worker ids in
  /// [0, min(workers, num_shards())). Deterministic (stable weight ties
  /// break by shard index). Workers claim their own shards first and steal
  /// the rest, so the assignment is a locality hint, not a schedule.
  std::vector<u32> assign_workers(usize workers) const;
};

/// Partitions `prog` (lowered from `m` against `topo`, see lower_program)
/// along chip boundaries and stamps ExecOp::cross_shard on its ops.
/// Deterministic: shards are ordered by linear chip cell, so one plan is
/// shared by every context.
ShardPlan build_shard_plan(const MappedNetwork& m, const noc::NocTopology& topo,
                           ExecProgram& prog);

}  // namespace sj::map
