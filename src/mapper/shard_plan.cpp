#include "mapper/shard_plan.h"

namespace sj::map {

namespace {

/// The link feeding the input-port register `op` reads as its $SRC operand,
/// or kInvalidLink when the op reads no port (or a grid-edge port nothing
/// writes). Port reads are the only cross-tile reads in the ISA, so they are
/// the only points where a cross-chip write is observed.
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

}  // namespace

ShardPlan build_shard_plan(const MappedNetwork& m, const noc::NocTopology& topo,
                           const ExecProgram& prog) {
  SJ_REQUIRE(m.cores.size() == topo.num_cores(),
             "build_shard_plan: topology does not match the mapping");
  SJ_REQUIRE(m.schedule.size() == prog.ops.size(),
             "build_shard_plan: program was not lowered from the mapping");
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
  for (const ExecOp& op : prog.ops) {
    chip_touched[chip_cell(op.core)] = true;
    if (op.link != noc::kInvalidLink) {
      chip_touched[chip_cell(topo.link(op.link).dst)] = true;
    }
  }
  for (const auto& taps : m.input_taps) {
    for (const Slot& s : taps) chip_touched[chip_cell(s.core)] = true;
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

  // Links some cross-shard send feeds.
  std::vector<bool> cross_fed(topo.num_links(), false);
  for (const ExecOp& op : prog.ops) {
    if (op.link != noc::kInvalidLink &&
        plan.shard_of_core[topo.link(op.link).dst] != plan.shard_of_core[op.core]) {
      cross_fed[op.link] = true;
    }
  }

  // A hazard reads a port some cross-shard send can feed. Cycle 0 opens a
  // phase of its own (the iteration boundary); lower_program keeps the ops
  // cycle-sorted, so each cut counts once.
  u32 last_cut = 0;
  for (u32 i = 0; i < prog.ops.size(); ++i) {
    const noc::LinkId feed = port_feed(topo, prog.ops[i]);
    if (feed == noc::kInvalidLink || !cross_fed[feed]) continue;
    const u32 cycle = m.schedule[i].cycle;
    if (cycle != last_cut) {
      ++plan.num_phases;
      last_cut = cycle;
    }
  }
  return plan;
}

}  // namespace sj::map
