// Opt-in engine phase profiling (see sim::SimContext::set_profiling).
//
// The sharded execution path (PR 5) made intra-frame parallelism real, and
// with it a new failure mode: shard imbalance, where one chip's op stream
// dominates a range and every other shard waits at the barrier. PhaseProfile
// is the accrual target for the engine's opt-in timers — per-shard exec time
// and barrier wait per range — so imbalance is measured, not inferred from
// throughput deltas. Off by default: the engine pays one predictable branch
// per frame/range and zero clock reads.
#pragma once

#include <chrono>
#include <vector>

#include "common/types.h"
#include "json/json.h"

namespace sj::obs {

/// Steady-clock nanoseconds since an arbitrary epoch — the one timestamp
/// source for traces and profiles (monotone; never jumps with wall time).
inline u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

/// Accrued wall-clock breakdown of engine frames. Additive: merge() combines
/// tallies from different contexts/workers; per-shard vectors align by shard
/// index (the ShardPlan's order, stable for a compiled model).
struct PhaseProfile {
  i64 frames = 0;          // plain frames profiled (run_frame, and
                           // run_frame_sharded when sharding does not pay)
  i64 sharded_frames = 0;  // team frames profiled (run_frame_sharded)
  u64 reset_ns = 0;        // per-frame context reset
  u64 encode_ns = 0;       // input rate encoder (set-up and every step)
  u64 exec_ns = 0;         // the frame's range loop, encoder excluded
  u64 frame_ns = 0;        // whole frames, end to end
  // Team frames, accrued per range (sim::PipeRange) across the frame:
  u64 phase_wall_ns = 0;      // wall time of the parallel section
  u64 barrier_commit_ns = 0;  // cross-shard commit (drain) at each barrier
  i64 shard_ranges = 0;       // ranges run (two barrier stages each:
                              // exec, then the cross-shard drain)
  std::vector<u64> shard_exec_ns;  // [shard] time executing its range slices
  std::vector<u64> shard_wait_ns;  // [shard] range wall minus own exec

  bool empty() const { return frames == 0 && sharded_frames == 0; }
  void merge(const PhaseProfile& o);
  /// Zeroes all tallies, keeping vector allocations (the serving workers'
  /// allocation-free drain).
  void clear();
  json::Value to_json() const;
};

}  // namespace sj::obs
