#include "obs/profile.h"

#include <algorithm>

namespace sj::obs {

void PhaseProfile::merge(const PhaseProfile& o) {
  frames += o.frames;
  sharded_frames += o.sharded_frames;
  reset_ns += o.reset_ns;
  encode_ns += o.encode_ns;
  exec_ns += o.exec_ns;
  frame_ns += o.frame_ns;
  phase_wall_ns += o.phase_wall_ns;
  barrier_commit_ns += o.barrier_commit_ns;
  shard_ranges += o.shard_ranges;
  if (shard_exec_ns.size() < o.shard_exec_ns.size()) {
    shard_exec_ns.resize(o.shard_exec_ns.size(), 0);
    shard_wait_ns.resize(o.shard_wait_ns.size(), 0);
  }
  for (usize s = 0; s < o.shard_exec_ns.size(); ++s) shard_exec_ns[s] += o.shard_exec_ns[s];
  for (usize s = 0; s < o.shard_wait_ns.size(); ++s) shard_wait_ns[s] += o.shard_wait_ns[s];
}

void PhaseProfile::clear() {
  frames = 0;
  sharded_frames = 0;
  reset_ns = 0;
  encode_ns = 0;
  exec_ns = 0;
  frame_ns = 0;
  phase_wall_ns = 0;
  barrier_commit_ns = 0;
  shard_ranges = 0;
  std::fill(shard_exec_ns.begin(), shard_exec_ns.end(), 0);
  std::fill(shard_wait_ns.begin(), shard_wait_ns.end(), 0);
}

json::Value PhaseProfile::to_json() const {
  json::Value v;
  v.set("frames", frames);
  v.set("sharded_frames", sharded_frames);
  v.set("reset_ns", static_cast<i64>(reset_ns));
  v.set("encode_ns", static_cast<i64>(encode_ns));
  v.set("exec_ns", static_cast<i64>(exec_ns));
  v.set("frame_ns", static_cast<i64>(frame_ns));
  v.set("phase_wall_ns", static_cast<i64>(phase_wall_ns));
  v.set("barrier_commit_ns", static_cast<i64>(barrier_commit_ns));
  v.set("shard_ranges", shard_ranges);
  if (!shard_exec_ns.empty()) {
    json::Array exec, wait;
    for (u64 n : shard_exec_ns) exec.emplace_back(static_cast<i64>(n));
    for (u64 n : shard_wait_ns) wait.emplace_back(static_cast<i64>(n));
    v.set("shard_exec_ns", std::move(exec));
    v.set("shard_wait_ns", std::move(wait));
  }
  return v;
}

}  // namespace sj::obs
