// Pass driver: runs the schedule passes in order, measures each, and
// re-validates the schedule with check_routes after every pass so any pass
// bug surfaces at compile time (of the model), not as a wrong frame.
#include "mapper/opt/opt.h"

#include <chrono>
#include <cstdlib>

#include "common/log.h"
#include "mapper/exec_program.h"
#include "mapper/shard_plan.h"

namespace sj::map::opt {

ProgramMetrics measure(const MappedNetwork& m) {
  ProgramMetrics pm;
  pm.cycles_per_timestep = m.cycles_per_timestep;
  pm.ops = static_cast<i64>(m.schedule.size());
  const noc::NocTopology topo = make_topology(m);
  const ExecProgram prog = lower_program(m, topo);
  pm.sends = prog.census.sends;
  for (const LinkCensus& l : prog.census.links) {
    if (topo.link(l.link).interchip) pm.cross_chip_crossings += l.ps_flits + l.spike_flits;
  }
  pm.shard_phases = build_shard_plan(m, topo, prog).num_phases;
  return pm;
}

i32 resolve_opt_level(i32 configured) {
  i32 level = configured;
  if (level < 0) {
    level = 1;
    if (const char* env = std::getenv("SHENJING_OPT"); env != nullptr && *env != '\0') {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0') level = static_cast<i32>(v);
    }
  }
  return std::clamp(level, 0, 2);
}

bool PlacementCost::better_than(const PlacementCost& o) const {
  if (!valid) return false;
  if (!o.valid) return true;
  if (crossings != o.crossings) return crossings < o.crossings;
  if (phases != o.phases) return phases < o.phases;
  return cycles < o.cycles;
}

void optimize_schedule(MappedNetwork& m, i32 level) {
  m.opt_level = level;
  if (level <= 0 || m.schedule.empty()) return;

  struct Pass {
    const char* name;
    i64 (*run)(MappedNetwork&);
  };
  const Pass passes[] = {
      {"coalesce", &coalesce_sends},
      {"repack", &repack_cycles},
  };
  // Each schedule is measured once: a pass's "after" is the next pass's
  // "before" (check_routes leaves the schedule untouched).
  ProgramMetrics before = measure(m);
  for (const Pass& pass : passes) {
    OptPassStat stat;
    stat.pass = pass.name;
    const auto t0 = std::chrono::steady_clock::now();
    const i64 delta = pass.run(m);
    stat.wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    const ProgramMetrics after = measure(m);
    stat.cycles_before = before.cycles_per_timestep;
    stat.cycles_after = after.cycles_per_timestep;
    stat.ops_before = before.ops;
    stat.ops_after = after.ops;
    stat.crossings_before = before.cross_chip_crossings;
    stat.crossings_after = after.cross_chip_crossings;
    stat.phases_before = before.shard_phases;
    stat.phases_after = after.shard_phases;
    m.opt_passes.push_back(std::move(stat));
    // Independent provability: every pass leaves a schedule check_routes
    // accepts, or the toolchain fails loudly right here.
    const Status s = check_routes(m);
    SJ_REQUIRE(s.is_ok(), std::string("optimizer pass '") + pass.name +
                              "' produced an invalid schedule: " + std::string(s.message()));
    if (delta != 0) {
      SJ_INFO("opt pass " << pass.name << ": " << delta << " ("
                          << before.cycles_per_timestep << " -> "
                          << after.cycles_per_timestep << " cycles, " << before.ops
                          << " -> " << after.ops << " ops)");
    }
    before = after;
  }
}

}  // namespace sj::map::opt
