// Engine phase profiling (see sim::SimContext::profile).
//
// PhaseProfile is the accrual target for the engine's frame timers: the
// per-frame context reset, the input encoder and the timestep execution,
// so a frame's wall time splits into layers that are measured, not
// inferred from throughput deltas. Every frame pays five clock reads.
#pragma once

#include <chrono>

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
/// tallies from different contexts/workers.
struct PhaseProfile {
  i64 frames = 0;      // frames profiled
  u64 reset_ns = 0;    // per-frame context reset
  u64 encode_ns = 0;   // input rate encoder (set-up and all T steps)
  u64 exec_ns = 0;     // the frame's step-list replay
  u64 frame_ns = 0;    // whole frames, end to end

  bool empty() const { return frames == 0; }
  void merge(const PhaseProfile& o);
  /// Zeroes all tallies (the serving workers' drain).
  void clear();
  json::Value to_json() const;
};

}  // namespace sj::obs
