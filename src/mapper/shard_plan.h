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
// (`ExecOp::cross_shard`). Those become the explicit inter-shard exchange —
// each shard stages them into a private outbox and they are committed, in
// fixed shard order, at a *phase barrier*.
//
// The deferral stays invisible if every outbox lands before any op can read
// what it carries. Walking the schedule in cycle order, the fewest barriers
// that guarantee this sit immediately before each cycle that READS an
// input-port register fed by a cross-shard link with an uncommitted send
// ("dirty" link); num_phases counts them (+1). It is the schedule-level
// measure of exchange pressure that placement search minimizes. The engine's
// sharded frame loop uses the static form of the same rule: its ranges
// (sim::PipeRange) split before every cycle that reads a port any
// cross-shard send can feed, which costs at most one more barrier per
// iteration, and reproduce the unsharded register timeline bit for bit.
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
    /// This shard's ops, cycle-major in source schedule order, with
    /// ExecOp::cross_shard set on ops whose link leaves the shard.
    std::vector<ExecOp> ops;
    /// Cores whose CoreState this shard mutates (its slice of the model's
    /// active set): op cores + input-tap cores on this chip. Sorted, unique.
    std::vector<u32> active_cores;
    /// This shard's slice of MappedNetwork::input_taps, flattened to
    /// (flat input index, slot) pairs in ascending input order.
    std::vector<std::pair<u32, Slot>> input_taps;
    /// Number of staged sends that leave the shard (per full schedule
    /// replay) — the exchange volume a scheduler can weigh shards by.
    i64 cross_sends = 0;
  };

  std::vector<Shard> shards;
  /// core -> shard index owning its chip (kNoShard on untouched chips).
  std::vector<u32> shard_of_core;
  /// Phases per schedule replay (barriers + 1, >= 1).
  u32 num_phases = 1;

  usize num_shards() const { return shards.size(); }

  /// Static shard -> worker assignment for a team of `workers` (>= 1):
  /// longest-processing-time greedy over a per-shard weight of op count plus
  /// cross_sends, so on asymmetric chips the busy shards spread across
  /// workers instead of piling onto one. Returns shard-indexed worker ids in
  /// [0, min(workers, num_shards())). Deterministic (stable weight ties
  /// break by shard index). Workers claim their own shards first and steal
  /// the rest, so the assignment is a locality hint, not a schedule.
  std::vector<u32> assign_workers(usize workers) const;
};

/// The link feeding the input-port register `op` reads as its $SRC operand,
/// or kInvalidLink when the op reads no port (or a grid-edge port nothing
/// writes). Port reads are the only cross-tile reads in the ISA, so they are
/// the only points where deferring a cross-shard commit could be observed.
noc::LinkId port_feed(const noc::NocTopology& topo, const ExecOp& op);

/// Partitions `prog` (lowered from `m` against `topo`, see lower_program)
/// along chip boundaries. Deterministic: shards are ordered by linear chip
/// cell and ops keep schedule order, so one plan is shared by every context.
ShardPlan build_shard_plan(const MappedNetwork& m, const noc::NocTopology& topo,
                           const ExecProgram& prog);

}  // namespace sj::map
