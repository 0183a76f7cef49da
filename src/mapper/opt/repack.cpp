// Cycle re-packing (opt pass 2): Kahn's algorithm with priorities over the
// register dependence DAG.
//
// The greedy scheduler (mapper/schedule.h) commits to issue cycles as it
// walks transfers in unit order, inserting wait-on-busy slack wherever an
// earlier choice occupies a link window. This pass rebuilds the whole
// timetable at once: it derives the real dependence DAG from the register
// dataflow, then list-schedules it — vertices whose predecessors are all
// placed become "ready", and ready vertices are inserted by priority, here
// the critical-path length to the schedule's end (the classic
// priority-driven topological scheduling move). Resource legality per cycle
// is check_routes' issue rule exactly (one op per plane per router block
// per core per cycle), so the compacted schedule passes the same validator
// the greedy one does.
//
// Register visibility model (matches sim/engine.cpp exactly):
//
//   staged    — the port in-registers (PS.IN_*/SPK.IN_*) are written by
//               two-phase-commit sends: a write at cycle t is visible from
//               t+1, and a same-cycle read sees the pre-t value regardless
//               of program order. Per-register events are therefore sorted
//               in *visibility* order (writes after every same-cycle read),
//               RAW latency is 1 and WAW latency is 1.
//   immediate — everything else (LocalPs, SumBuf, Eject, SpikeOut,
//               Potential) takes effect in program order within the cycle.
//               Since the emitted schedule preserves original program order
//               inside every cycle, RAW/WAR/WAW all carry latency 0: the
//               within-cycle replay is order-identical to the original.
//   ACC       — RAW behind an ACC costs acc_cycles: the PS file is stable
//               only after the accumulate window (the same floor the greedy
//               ps_ready models).
//
// Latency-0 constraints between ops of one original cycle can be symmetric
// (two waves crossing between adjacent cores constrain each other's ports
// both ways), which plain precedence cannot express — such ops are fused
// into a cluster and scheduled atomically at one cycle, exactly as the
// original schedule (the feasibility witness) ran them. After fusion every
// remaining edge points forward in program order, so the cluster graph is a
// DAG by construction.
//
// Identical dataflow + identical within-cycle program order == identical
// results, SimStats (minus total cycles) and per-link counters; only
// cycles_per_timestep shrinks.
#include <algorithm>
#include <unordered_map>

#include "mapper/opt/dataflow.h"
#include "mapper/opt/opt.h"

namespace sj::map::opt {

namespace {

/// Union-find over op indices, for fusing same-cycle lat-0 groups.
class Dsu {
 public:
  explicit Dsu(usize n) : p_(n) {
    for (usize i = 0; i < n; ++i) p_[i] = static_cast<u32>(i);
  }
  u32 find(u32 x) {
    while (p_[x] != x) {
      p_[x] = p_[p_[x]];
      x = p_[x];
    }
    return x;
  }
  void unite(u32 a, u32 b) {
    a = find(a);
    b = find(b);
    if (a != b) p_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<u32> p_;
};

}  // namespace

i64 repack_cycles(MappedNetwork& m) {
  const usize n = m.schedule.size();
  if (n == 0) return 0;
  const noc::NocTopology topo = make_topology(m);
  const u32 acc_lat = static_cast<u32>(m.arch.acc_cycles);

  std::vector<OpModel> models(n);
  std::vector<u32> cyc(n);
  for (usize i = 0; i < n; ++i) {
    models[i] = op_model(topo, m.schedule[i]);
    cyc[i] = m.schedule[i].cycle;
  }

  // --- per-register event streams in visibility order ----------------------
  struct Ev {
    u64 seq = 0;
    u32 idx = 0;
    bool write = false;
    PlaneMask mask;
  };
  std::unordered_map<u64, std::vector<Ev>> streams;
  for (usize i = 0; i < n; ++i) {
    const OpModel& om = models[i];
    for (int r = 0; r < om.num_reads; ++r) {
      const Access& a = om.reads[static_cast<usize>(r)];
      streams[reg_key(a.core, a.reg)].push_back(
          Ev{static_cast<u64>(cyc[i]) * 2, static_cast<u32>(i), false, a.mask});
    }
    for (int w = 0; w < om.num_writes; ++w) {
      const Access& a = om.writes[static_cast<usize>(w)];
      streams[reg_key(a.core, a.reg)].push_back(
          Ev{static_cast<u64>(cyc[i]) * 2 + (is_port(a.reg) ? 1 : 0),
             static_cast<u32>(i), true, a.mask});
    }
  }

  // --- dependences: edges across cycles, fusion within a cycle -------------
  Dsu dsu(n);
  struct Edge {
    u32 from = 0, to = 0, lat = 0;
  };
  std::vector<Edge> edges;
  const auto add_dep = [&](u32 from, u32 to, u32 lat) {
    if (from == to) return;
    if (lat == 0 && cyc[from] == cyc[to]) {
      dsu.unite(from, to);  // must stay co-scheduled, like the original
      return;
    }
    edges.push_back(Edge{from, to, lat});
  };
  {
    std::vector<u64> keys;
    keys.reserve(streams.size());
    for (const auto& [k, v] : streams) keys.push_back(k);
    std::sort(keys.begin(), keys.end());  // deterministic edge order
    for (const u64 k : keys) {
      auto& evs = streams[k];
      std::stable_sort(evs.begin(), evs.end(),
                       [](const Ev& a, const Ev& b) { return a.seq < b.seq; });
      const bool staged = is_port(static_cast<RegFile>(k & 0xff));
      RegTracker tracker;
      for (const Ev& e : evs) {
        if (e.write) {
          tracker.write(
              e.idx, e.mask, [&](u32 r) { add_dep(r, e.idx, 0); },
              [&](u32 w) { add_dep(w, e.idx, staged ? 1u : 0u); });
        } else {
          tracker.read(e.idx, e.mask, [&](u32 w) {
            add_dep(w, e.idx, models[w].acc ? acc_lat : (staged ? 1u : 0u));
          });
        }
      }
    }
  }

  // --- cluster graph --------------------------------------------------------
  // Cluster ids are assigned in first-member order; since all cross-cluster
  // edges point from an earlier original cycle to a later one, ascending id
  // is a topological order.
  std::vector<u32> cluster_of(n);
  std::vector<std::vector<u32>> members;
  {
    std::unordered_map<u32, u32> id_of_root;
    for (usize i = 0; i < n; ++i) {
      const u32 r = dsu.find(static_cast<u32>(i));
      auto [it, fresh] = id_of_root.try_emplace(r, static_cast<u32>(members.size()));
      if (fresh) members.emplace_back();
      cluster_of[i] = it->second;
      members[it->second].push_back(static_cast<u32>(i));
    }
  }
  const usize nc = members.size();
  std::vector<std::vector<std::pair<u32, u32>>> succ(nc);  // (to, latency)
  std::vector<u32> npred(nc, 0);
  for (const Edge& e : edges) {
    const u32 cf = cluster_of[e.from], ct = cluster_of[e.to];
    if (cf == ct) {
      // A latency-carrying edge inside one fused cycle would make the
      // cluster infeasible; the original schedule never produces one, but
      // keep the schedule rather than crash if a degenerate input does.
      if (e.lat > 0) return 0;
      continue;
    }
    auto& out = succ[cf];
    if (!out.empty() && out.back().first == ct && out.back().second >= e.lat) continue;
    out.emplace_back(ct, e.lat);
    ++npred[ct];
  }

  // --- priorities: critical-path length to any sink ------------------------
  std::vector<u32> cp(nc, 0);
  for (usize c = nc; c-- > 0;) {
    for (const auto& [to, lat] : succ[c]) cp[c] = std::max(cp[c], lat + cp[to]);
  }

  // --- list scheduling ------------------------------------------------------
  std::vector<u32> cycle_of(nc, 0);
  std::vector<u32> earliest(nc, 0);
  std::vector<std::vector<u32>> buckets(1);
  const auto bucket_push = [&](u32 c, u32 at) {
    if (buckets.size() <= at) buckets.resize(static_cast<usize>(at) + 1);
    buckets[at].push_back(c);
  };
  for (usize c = 0; c < nc; ++c) {
    if (npred[c] == 0) buckets[0].push_back(static_cast<u32>(c));
  }
  IssueSlots issue;
  const auto by_priority = [&](u32 x, u32 y) {
    if (cp[x] != cp[y]) return cp[x] > cp[y];
    return x < y;
  };

  usize placed = 0;
  u32 new_max = 0;
  for (u32 t = 0; placed < nc; ++t) {
    SJ_ASSERT(t < buckets.size(), "repack: ran out of ready ops with work left");
    std::vector<u32> cand = std::move(buckets[t]);
    while (!cand.empty()) {
      std::sort(cand.begin(), cand.end(), by_priority);
      std::vector<u32> same_cycle;
      for (const u32 c : cand) {
        // A cluster is placed all-or-nothing. Its members shared one cycle
        // of a legal schedule, so they never refuse each other's claims.
        const auto fits = [&](u32 idx) {
          const TimedOp& op = m.schedule[idx];
          return issue.free(t, op.core, models[idx].block, op.mask);
        };
        if (!std::all_of(members[c].begin(), members[c].end(), fits)) {
          bucket_push(c, t + 1);  // occupancy only grows within a cycle
          continue;
        }
        for (const u32 idx : members[c]) {
          const TimedOp& op = m.schedule[idx];
          issue.claim(t, op.core, models[idx].block, op.mask);
        }
        cycle_of[c] = t;
        new_max = std::max(new_max, t);
        ++placed;
        for (const auto& [to, lat] : succ[c]) {
          earliest[to] = std::max(earliest[to], t + lat);
          if (--npred[to] == 0) {
            if (earliest[to] <= t) same_cycle.push_back(to);
            else bucket_push(to, earliest[to]);
          }
        }
      }
      cand = std::move(same_cycle);  // lat-0-released clusters may join this cycle
    }
  }

  // --- commit only on improvement ------------------------------------------
  u32 old_max = 0;
  for (const u32 c : cyc) old_max = std::max(old_max, c);
  if (new_max >= old_max) return 0;

  std::vector<u32> order(n);
  for (usize i = 0; i < n; ++i) order[i] = static_cast<u32>(i);
  // Sort by new cycle; within a cycle keep original program order — the
  // immediate-register latency-0 model depends on it.
  std::stable_sort(order.begin(), order.end(), [&](u32 x, u32 y) {
    return cycle_of[cluster_of[x]] < cycle_of[cluster_of[y]];
  });
  std::vector<TimedOp> packed;
  packed.reserve(n);
  for (const u32 idx : order) {
    TimedOp t = m.schedule[idx];
    t.cycle = cycle_of[cluster_of[idx]];
    packed.push_back(std::move(t));
  }
  m.schedule = std::move(packed);
  const u32 saved = old_max - new_max;
  m.cycles_per_timestep -= saved;  // tail slack beyond the last op is kept
  return static_cast<i64>(saved);
}

}  // namespace sj::map::opt
