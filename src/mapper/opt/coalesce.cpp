// Send coalescing (opt pass 1).
//
// The greedy scheduler frequently emits several sends with identical control
// words from one core at different cycles — split multicast chains, staggered
// fold arrivals, conv boundary exchanges. Each is one staged write and one
// issue slot per timestep, forever. When two such sends touch disjoint
// planes and the dataflow proves the merged transfer indistinguishable, the
// later one is folded into the earlier one's plane mask.
//
// "Indistinguishable" is checked against the register timeline, per plane:
//
//   source  — every write to the later op's source planes at or before its
//             original cycle must already be readable at the earlier cycle
//             (writer cycle + latency <= merge cycle, latency = acc_cycles
//             behind ACC, else 1), so the value staged early is the value
//             that was staged late;
//   dest    — the destination port register's planes see no other write in
//             [cA, cB] and no read in (cA, cB] (no observer can tell the
//             landing moved up, and the per-wire value sequence — hence
//             toggle accounting — is untouched);
//   issue   — the merged planes are free on the core's router block at the
//             merge cycle (check_routes' issue rule).
//
// Flits, payload bits and popcount-weighted census rows are additive over
// planes, so merging moves no statistic: the pass is invisible to results,
// SimStats and per-link counters alike.
#include <algorithm>
#include <unordered_map>

#include "mapper/opt/dataflow.h"
#include "mapper/opt/opt.h"

namespace sj::map::opt {

namespace {

using core::OpCode;

/// Every link-writing op but SPK.RECV_FWD, which also delivers axons here.
bool mergeable(const core::AtomicOp& op) {
  return core::needs_link(op) && op.code != OpCode::SpkRecvForward;
}

struct Event {
  u32 cycle = 0;
  u32 op = 0;
  bool write = false;
  PlaneMask mask;
};

}  // namespace

i64 coalesce_sends(MappedNetwork& m) {
  const usize n = m.schedule.size();
  if (n < 2) return 0;
  const noc::NocTopology topo = make_topology(m);
  const u32 acc_lat = static_cast<u32>(m.arch.acc_cycles);

  std::vector<OpModel> models(n);
  // Register timelines + issue occupancy + per-op event locations.
  std::unordered_map<u64, std::vector<Event>> events;
  IssueSlots issue;
  // op -> (regkey, index into events[regkey]) for in-place mask updates.
  std::vector<std::vector<std::pair<u64, u32>>> op_events(n);
  std::vector<bool> is_acc(n, false);
  for (usize i = 0; i < n; ++i) {
    const TimedOp& t = m.schedule[i];
    models[i] = op_model(topo, t);
    is_acc[i] = models[i].acc;
    issue.claim(t.cycle, t.core, models[i].block, t.mask);  // legal input: every claim holds
    const auto log_access = [&](const Access& a, bool write) {
      const u64 key = reg_key(a.core, a.reg);
      auto& v = events[key];
      op_events[i].emplace_back(key, static_cast<u32>(v.size()));
      v.push_back(Event{t.cycle, static_cast<u32>(i), write, a.mask});
    };
    for (int r = 0; r < models[i].num_reads; ++r) log_access(models[i].reads[static_cast<usize>(r)], false);
    for (int w = 0; w < models[i].num_writes; ++w) log_access(models[i].writes[static_cast<usize>(w)], true);
  }

  // Candidate groups: identical (core, control word), schedule order.
  std::unordered_map<u64, std::vector<u32>> groups;
  for (usize i = 0; i < n; ++i) {
    const TimedOp& t = m.schedule[i];
    if (!mergeable(t.op)) continue;
    groups[(static_cast<u64>(t.core) << 16) | core::encode(t.op)].push_back(
        static_cast<u32>(i));
  }

  std::vector<bool> dead(n, false);
  i64 merged = 0;

  const auto try_merge = [&](u32 a, u32 b) -> bool {
    TimedOp& A = m.schedule[a];
    const TimedOp& B = m.schedule[b];
    const u32 ca = A.cycle, cb = B.cycle;
    if (ca > cb) return false;
    if (A.mask.intersects(B.mask)) return false;  // a re-send carries a new value
    const Access src = models[b].reads[0];
    const Access dst = models[b].writes[0];
    // Source stability: the value readable at ca must be the value read
    // at cb.
    for (const Event& e : events[reg_key(src.core, src.reg)]) {
      if (e.cycle > cb) break;
      if (!e.write || !e.mask.intersects(B.mask)) continue;
      const u32 lat = is_acc[e.op] ? acc_lat : 1;
      if (e.cycle + lat > ca) return false;
    }
    // Destination port untouched in the window (other writes would change
    // the final value or the per-wire order; reads would see B's data
    // early).
    for (const Event& e : events[reg_key(dst.core, dst.reg)]) {
      if (e.cycle > cb) break;
      if (e.cycle < ca || e.op == b) continue;
      if (!e.mask.intersects(B.mask)) continue;
      if (e.write) return false;                   // in [ca, cb]
      if (e.cycle > ca) return false;              // read in (ca, cb]
    }
    // Issue slot free for the extra planes at the merge cycle (claimed
    // here, as the last check). Same-cycle twins (two identical control
    // words on disjoint planes in one cycle) already share the slot, so B's
    // own claim is not a conflict.
    if (ca != cb && !issue.claim(ca, A.core, models[a].block, B.mask)) return false;

    // Commit the merge: A absorbs B's planes everywhere.
    A.mask |= B.mask;
    models[a].reads[0].mask |= B.mask;
    models[a].writes[0].mask |= B.mask;
    for (const auto& [key, pos] : op_events[a]) events[key][pos].mask |= B.mask;
    for (const auto& [key, pos] : op_events[b]) events[key][pos].mask = PlaneMask::none();
    dead[b] = true;
    return true;
  };

  // Deterministic group order (merges consume shared issue/timeline state,
  // so hash-map order must not leak into the result): by first member.
  std::vector<const std::vector<u32>*> group_order;
  for (const auto& [key, members] : groups) {
    if (members.size() >= 2) group_order.push_back(&members);
  }
  std::sort(group_order.begin(), group_order.end(),
            [](const auto* x, const auto* y) { return x->front() < y->front(); });

  for (const auto* group : group_order) {
    const std::vector<u32>& members = *group;
    std::vector<u32> survivors;
    for (const u32 j : members) {
      bool folded = false;
      for (const u32 i : survivors) {
        if (try_merge(i, j)) {
          folded = true;
          break;
        }
      }
      if (folded) ++merged;
      else survivors.push_back(j);
    }
  }

  if (merged > 0) {
    u32 old_max = 0, new_max = 0;
    for (const TimedOp& t : m.schedule) old_max = std::max(old_max, t.cycle);
    usize keep = 0;
    for (usize i = 0; i < n; ++i) {
      if (dead[i]) continue;
      new_max = std::max(new_max, m.schedule[i].cycle);
      m.schedule[keep++] = m.schedule[i];
    }
    m.schedule.resize(keep);
    m.cycles_per_timestep -= old_max - new_max;  // tail slack convention
  }
  return merged;
}

}  // namespace sj::map::opt
