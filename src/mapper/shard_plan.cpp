#include "mapper/shard_plan.h"

#include <algorithm>

namespace sj::map {

noc::LinkId port_feed(const noc::NocTopology& topo, const ExecOp& op) {
  switch (op.code) {
    case core::OpCode::PsSum:
    case core::OpCode::PsBypass:
    case core::OpCode::SpkBypass:
    case core::OpCode::SpkRecv:
    case core::OpCode::SpkRecvForward:
      break;
    default:
      return noc::kInvalidLink;
  }
  const u32 nb = topo.neighbor(op.core, op.src);
  if (nb == noc::kInvalidCore) return noc::kInvalidLink;
  return topo.link_id(nb, opposite(op.src));
}

ShardPlan build_shard_plan(const MappedNetwork& m, const noc::NocTopology& topo,
                           const ExecProgram& prog) {
  SJ_REQUIRE(m.cores.size() == topo.num_cores(),
             "build_shard_plan: topology does not match the mapping");
  const usize n = m.cores.size();
  const i32 chips_across = (m.grid_cols + m.arch.chip_cols - 1) / m.arch.chip_cols;
  const i32 chips_down = (m.grid_rows + m.arch.chip_rows - 1) / m.arch.chip_rows;
  const usize num_chips =
      static_cast<usize>(chips_across) * static_cast<usize>(chips_down);
  const auto chip_cell = [&](u32 core) {
    const Coord p = topo.position(core);
    return static_cast<usize>(p.row / m.arch.chip_rows) *
               static_cast<usize>(chips_across) +
           static_cast<usize>(p.col / m.arch.chip_cols);
  };

  // Chips the program touches: op cores, send destinations and input-tap
  // cores. Untouched chips (all-filler) get no shard — there is nothing to
  // replay or reset on them.
  std::vector<bool> chip_touched(num_chips, false);
  std::vector<bool> core_active(n, false);
  for (const ExecOp& op : prog.ops) {
    chip_touched[chip_cell(op.core)] = true;
    core_active[op.core] = true;
    if (op.link != noc::kInvalidLink) {
      chip_touched[chip_cell(topo.link(op.link).dst)] = true;
    }
  }
  for (const auto& taps : m.input_taps) {
    for (const Slot& s : taps) {
      chip_touched[chip_cell(s.core)] = true;
      core_active[s.core] = true;
    }
  }

  ShardPlan plan;
  std::vector<u32> chip_shard(num_chips, kNoShard);
  for (usize ch = 0; ch < num_chips; ++ch) {
    if (!chip_touched[ch]) continue;
    chip_shard[ch] = static_cast<u32>(plan.shards.size());
    plan.shards.emplace_back().chip = static_cast<u32>(ch);
  }
  plan.shard_of_core.assign(n, kNoShard);
  for (u32 c = 0; c < n; ++c) plan.shard_of_core[c] = chip_shard[chip_cell(c)];

  // Each shard's slice of the frame-boundary/iteration prologue state: the
  // cores it rotates and resets, and the input taps it injects. Together the
  // slices cover exactly the model's active set (same predicate as
  // CompiledModel::build_touch_sets), each core in its chip's shard.
  for (u32 c = 0; c < n; ++c) {
    if (core_active[c]) plan.shards[plan.shard_of_core[c]].active_cores.push_back(c);
  }
  for (u32 g = 0; g < m.input_taps.size(); ++g) {
    for (const Slot& s : m.input_taps[g]) {
      plan.shards[plan.shard_of_core[s.core]].input_taps.emplace_back(g, s);
    }
  }

  // One ordered walk of the schedule does the rest: count a phase barrier
  // immediately before any cycle that reads an input-port register fed by a
  // cross-shard link with an uncommitted ("dirty") send, and deal the
  // cycle's ops to their chip shards with ExecOp::cross_shard resolved.
  std::vector<bool> link_dirty(topo.num_links(), false);
  std::vector<noc::LinkId> dirtied;
  for (const ExecCycle& cyc : prog.cycles) {
    // Two-phase semantics: reads in this cycle see values staged in earlier
    // cycles, so the barrier check runs before this cycle's sends dirty
    // anything.
    bool barrier = false;
    for (u32 oi = cyc.begin; oi < cyc.end && !barrier; ++oi) {
      const noc::LinkId feed = port_feed(topo, prog.ops[oi]);
      barrier = feed != noc::kInvalidLink && link_dirty[feed];
    }
    if (barrier) {
      ++plan.num_phases;
      for (const noc::LinkId l : dirtied) link_dirty[l] = false;
      dirtied.clear();
    }

    for (u32 oi = cyc.begin; oi < cyc.end; ++oi) {
      ExecOp op = prog.ops[oi];
      const u32 s = plan.shard_of_core[op.core];
      if (op.link != noc::kInvalidLink) {
        op.cross_shard = plan.shard_of_core[topo.link(op.link).dst] != s;
        if (op.cross_shard) {
          plan.shards[s].cross_sends += 1;
          if (!link_dirty[op.link]) {
            link_dirty[op.link] = true;
            dirtied.push_back(op.link);
          }
        }
      }
      plan.shards[s].ops.push_back(op);
    }
  }
  return plan;
}

std::vector<u32> ShardPlan::assign_workers(usize workers) const {
  const usize S = shards.size();
  std::vector<u32> owner(S, 0);
  if (S == 0) return owner;
  workers = std::min(std::max<usize>(workers, 1), S);
  // LPT greedy: heaviest shard first onto the least-loaded worker. Weight =
  // op count + cross_sends — the shard's exec cost plus its share of the
  // barrier exchange, both schedule-static. Asymmetric chips (one
  // dense chip, several light ones) land balanced instead of chip-ordered.
  std::vector<u32> order(S);
  for (usize s = 0; s < S; ++s) order[s] = static_cast<u32>(s);
  const auto weight = [&](u32 s) {
    return static_cast<i64>(shards[s].ops.size()) + shards[s].cross_sends;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](u32 a, u32 b) { return weight(a) > weight(b); });
  std::vector<i64> load(workers, 0);
  for (const u32 s : order) {
    usize best = 0;
    for (usize w = 1; w < workers; ++w) {
      if (load[w] < load[best]) best = w;
    }
    owner[s] = static_cast<u32>(best);
    load[best] += weight(s);
  }
  return owner;
}

}  // namespace sj::map
