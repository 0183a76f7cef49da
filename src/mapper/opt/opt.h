// Mapping-time optimizer: compiler passes over the compiled TimedOp schedule
// (ROADMAP "Mapping-time optimizer").
//
// The greedy scheduler (mapper/schedule.h) emits a correct schedule with
// compile-time wait-on-busy windows, but every cycle it leaves on the table
// is replayed by the engine on every timestep of every frame. This subsystem
// treats the schedule as a program and runs classic compiler passes over it:
//
//   coalesce   — merge same-(core, op) sends/bypasses on disjoint planes
//                into the earliest one when the dataflow proves the merged
//                send stages identical values (same source-register version,
//                destination port untouched in between) — fewer staged
//                writes, identical per-wire value sequences.
//   repack     — Kahn-with-priorities list scheduler (critical-path-length
//                priority) over the register dependence DAG, with
//                check_routes' issue rule (one op per plane per (core,
//                block) per cycle) as its resource constraint; compacts
//                `cycles_per_timestep`.
//
// Both read one register model, opt::op_model (opt/dataflow.h).
// Passes are bit-exactness-preserving by construction *and* re-validated
// after every pass with check_routes() (mapper/validate.cpp's NoC rules), so
// each pass is independently provable on any program it is given.
//
// Opt levels (SHENJING_OPT, default 1):
//   0 — greedy schedule untouched (the seed behaviour).
//   1 — schedule passes: coalesce, repack.
//   2 — level 1 plus placement search in map_network(): a deterministic
//       hill-climb over unit anchor positions (opt/placement.cpp) that
//       minimizes cross-chip crossings, then cycles — this one changes
//       routes (and therefore per-link counters), never results.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "mapper/program.h"

namespace sj::map::opt {

/// Schedule-wide cost summary, the currency every pass reports in.
/// `crossings` is mask-popcount-weighted traffic over inter-chip links
/// (the TrafficReport/SerDes cost driver).
struct ProgramMetrics {
  u32 cycles_per_timestep = 0;
  i64 ops = 0;
  i64 sends = 0;                // link-writing ops (send/bypass/forward)
  i64 cross_chip_crossings = 0; // popcount-weighted ops over interchip links
};

/// Measures `m` by lowering it (make_topology + lower_program, whose
/// static census gives `sends` and the crossings). Deterministic; costs a
/// few passes over the schedule.
ProgramMetrics measure(const MappedNetwork& m);

/// Resolves the effective opt level: `configured` >= 0 wins, otherwise the
/// SHENJING_OPT environment variable, otherwise 1. Clamped to [0, 2].
i32 resolve_opt_level(i32 configured);

// --- individual passes (exposed for per-pass unit tests) -------------------
// Each returns the number of ops removed / merged / cycles saved and leaves
// `m.schedule` sorted by cycle with `m.cycles_per_timestep` refreshed.

/// Merges same-(core, op) sends on disjoint planes into the earliest one
/// when dataflow proves the staged values identical. Returns ops merged away.
i64 coalesce_sends(MappedNetwork& m);

/// List-schedules the dependence DAG to compact cycles_per_timestep.
/// Keeps the original schedule when no improvement is found. Returns cycles
/// saved.
i64 repack_cycles(MappedNetwork& m);

/// Runs the schedule passes for `level` (>= 1: coalesce, repack)
/// in order, validating the schedule with check_routes() after every pass
/// and appending one OptPassStat per pass to `m.opt_passes` (each schedule
/// is measured once, so a pass's *_before equals the previous pass's
/// *_after). Also stamps `m.opt_level = level`. A level <= 0 only stamps.
void optimize_schedule(MappedNetwork& m, i32 level);

// --- placement search (level 2, driven by map_network) ---------------------

/// One unit rectangle to place.
struct PlaceRect {
  i32 rows = 0, cols = 0;
};

/// Anchor (top-left tile) per unit, row-major grid coordinates.
struct PlaceAnchor {
  i32 row0 = 0, col0 = 0;
};

/// Candidate cost as the search compares it: lexicographic
/// (crossings, cycles). `valid` is false when the candidate could not be
/// evaluated (overlap, mapping failure) — such candidates never win.
struct PlacementCost {
  bool valid = false;
  i64 crossings = 0;
  u32 cycles = 0;

  /// Strictly-better-than comparison (lexicographic on the cost pair).
  bool better_than(const PlacementCost& o) const;
};

struct PlacementProblem {
  std::vector<PlaceRect> units;
  i32 width = 0;       // fixed grid width in tiles
  i32 chip_rows = 0, chip_cols = 0;
  i32 max_rows = 0;    // candidates must fit in [0, max_rows) rows
  /// Maps anchors -> cost. The search calls this up to `max_evals` times;
  /// it must be deterministic.
  std::function<PlacementCost(const std::vector<PlaceAnchor>&)> evaluate;
  i32 max_evals = 48;
  /// Hard cycle budget: candidates whose scheduled cycles exceed this are
  /// rejected outright (0 = unconstrained). Crossings-first search would
  /// otherwise happily trade timetable length — which multiplies into every
  /// timestep of every frame — for SerDes traffic; the seed placement's own
  /// cycle count is the natural bound.
  u32 max_cycles = 0;
};

/// Deterministic greedy-refinement search seeded by `seed` (the greedy shelf
/// placement): unit-order re-packs, per-unit anchor moves (chip-aligned and
/// one-tile nudges) and pairwise anchor swaps, accepted on strict
/// lexicographic improvement, until a round makes no progress or the eval
/// budget runs out. Returns the best anchors found (possibly the seed).
std::vector<PlaceAnchor> refine_placement(const PlacementProblem& problem,
                                          const std::vector<PlaceAnchor>& seed,
                                          PlacementCost* best_cost = nullptr,
                                          i32* evals_used = nullptr);

}  // namespace sj::map::opt
