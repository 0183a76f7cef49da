#include "mapper/exec_program.h"

#include "common/string_util.h"

namespace sj::map {

ExecProgram lower_program(const MappedNetwork& m, const noc::NocTopology& topo) {
  SJ_REQUIRE(m.cores.size() == topo.num_cores(),
             "lower_program: topology does not match the mapping");
  ExecProgram p;
  p.ops.reserve(m.schedule.size());

  for (const TimedOp& top : m.schedule) {
    SJ_REQUIRE(p.ops.empty() || top.cycle >= m.schedule[p.ops.size() - 1].cycle,
               "lower_program: schedule not sorted by cycle");
    ExecOp e;
    e.code = top.op.code;
    e.src = top.op.src;
    e.consec = top.op.consec;
    e.from_sum_buf = top.op.from_sum_buf;
    e.eject = top.op.eject;
    e.sum_or_local = top.op.sum_or_local;
    e.hold = top.op.hold;
    e.energy_op = static_cast<u8>(core::energy_op_of(top.op.code));
    e.core = top.core;
    e.mask = top.mask.w;
    e.mask_pop = top.mask.popcount();
    if (core::needs_link(top.op)) {
      e.link = topo.link_id(top.core, top.op.dst);
      SJ_ASSERT(e.link != noc::kInvalidLink,
                strprintf("lower_program: core %u routes %s off the grid edge "
                          "at cycle %u",
                          top.core, dir_name(top.op.dst), top.cycle));
    }
    p.ops.push_back(e);
  }
  return p;
}

}  // namespace sj::map
