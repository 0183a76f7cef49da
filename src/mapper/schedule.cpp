#include "mapper/schedule.h"

#include <algorithm>

namespace sj::map {

std::vector<Dir> xy_route(Coord from, Coord to) {
  std::vector<Dir> hops;
  i32 c = from.col;
  while (c < to.col) {
    hops.push_back(Dir::East);
    ++c;
  }
  while (c > to.col) {
    hops.push_back(Dir::West);
    --c;
  }
  i32 r = from.row;
  while (r < to.row) {
    hops.push_back(Dir::South);
    ++r;
  }
  while (r > to.row) {
    hops.push_back(Dir::North);
    --r;
  }
  return hops;
}

Scheduler::Scheduler(MappedNetwork& out, const ArchParams& arch)
    : out_(out),
      arch_(arch),
      topo_(make_topology(out)),
      acc_done_(static_cast<u32>(arch.acc_cycles)) {
  const usize n = out.cores.size();
  ps_ready_.assign(n, std::vector<u32>(core::PlaneMask::kPlanes, acc_done_));
  summed_.assign(n, PlaneMask::none());
  spike_ready_.assign(n, 0);
}

u64 Scheduler::link_key(u32 c, Dir d, u32 cycle) const {
  return (static_cast<u64>(c) << 27) | (static_cast<u64>(d) << 25) | cycle;
}

bool Scheduler::router_free(Net net, u32 c, u32 cycle, const PlaneMask& m) const {
  return router_busy_.free(cycle, c, static_cast<core::Block>(net), m);
}

bool Scheduler::spike_link_free(u32 c, Dir d, u32 cycle, const PlaneMask& m) const {
  const auto it = link_busy_.find(link_key(c, d, cycle));
  return it == link_busy_.end() || !it->second.intersects(m);
}

void Scheduler::occupy_router(Net net, u32 c, u32 cycle, const PlaneMask& m) {
  const bool claimed = router_busy_.claim(cycle, c, static_cast<core::Block>(net), m);
  SJ_ASSERT(claimed, "Scheduler: router occupied without a free check");
}

void Scheduler::occupy_spike_link(u32 c, Dir d, u32 cycle, const PlaneMask& m) {
  link_busy_[link_key(c, d, cycle)] |= m;
}

void Scheduler::emit(u32 cycle, u32 c, const PlaneMask& m, const AtomicOp& op) {
  out_.schedule.push_back(TimedOp{cycle, c, m, op});
  horizon_ = std::max(horizon_, cycle + 1);
}

u32 Scheduler::neighbor(u32 c, Dir d) const {
  const u32 nb = topo_.neighbor(c, d);
  SJ_ASSERT(nb != noc::kInvalidCore,
            "schedule: route passes through unmapped tile " + std::string(dir_name(d)) +
                " of " + to_string(out_.cores[c].pos) +
                " (placement must leave no holes along routes)");
  return nb;
}

void Scheduler::emit_acc_all() {
  for (u32 c = 0; c < out_.cores.size(); ++c) {
    if (out_.cores[c].filler) continue;  // pass-through tiles never ACC
    emit(0, c, out_.cores[c].neuron_mask, AtomicOp::acc());
  }
}

u32 Scheduler::ps_transfer(u32 src, u32 dst, const PlaneMask& mask) {
  SJ_REQUIRE(!mask.empty(), "ps_transfer: empty mask");
  SJ_REQUIRE(src != dst, "ps_transfer: src == dst");
  const std::vector<Dir> hops = xy_route(out_.cores[src].pos, out_.cores[dst].pos);
  const u32 len = static_cast<u32>(hops.size());

  // Earliest cycle the source planes are final.
  u32 t0 = acc_done_;
  mask.for_each([&](u16 p) { t0 = std::max(t0, ps_ready_[src][p]); });
  // The destination executes one SUM per arriving transfer, with consec=0 on
  // the first and consec=1 afterwards. Those flags are burned into the
  // schedule in the order transfers are issued here, so arrivals must reach
  // the destination in that same order: a later-issued transfer may not
  // arrive before an earlier one on any shared plane.
  mask.for_each([&](u16 p) {
    const u32 ready = ps_ready_[dst][p];
    if (ready > acc_done_ && ready > len) t0 = std::max(t0, ready - len);
  });

  // Wait-on-busy: advance until routers and links are free along the path.
  u32 t = t0;
  for (;; ++t) {
    bool ok = router_free(Net::Ps, src, t, mask);
    u32 c = src;
    for (u32 h = 0; ok && h < len; ++h) {
      const u32 next = neighbor(c, hops[h]);
      ok = router_free(Net::Ps, next, t + h + 1, mask);
      c = next;
    }
    if (ok) break;
  }

  // Source: send sum-buffer planes and local-PS planes as (up to) two ops.
  const PlaneMask m_sum = mask & summed_[src];
  PlaneMask m_loc = PlaneMask::none();
  mask.for_each([&](u16 p) {
    if (!m_sum.get(p)) m_loc.set(p);
  });
  if (!m_sum.empty()) emit(t, src, m_sum, AtomicOp::ps_send(hops[0], /*fromSumBuf=*/true));
  if (!m_loc.empty()) emit(t, src, m_loc, AtomicOp::ps_send(hops[0], /*fromSumBuf=*/false));
  occupy_router(Net::Ps, src, t, mask);

  // Intermediates bypass.
  u32 c = src;
  for (u32 h = 0; h + 1 < len; ++h) {
    const u32 next = neighbor(c, hops[h]);
    emit(t + h + 1, next, mask, AtomicOp::ps_bypass(opposite(hops[h]), hops[h + 1]));
    occupy_router(Net::Ps, next, t + h + 1, mask);
    c = next;
  }
  const u32 arrival = t + len;  // in_reg readable at dst in this cycle

  // Destination: in-network add. Planes summed before continue the chain
  // (consec=1); fresh planes start sum_buf = local + incoming (consec=0).
  const PlaneMask d_cont = mask & summed_[dst];
  PlaneMask d_first = PlaneMask::none();
  mask.for_each([&](u16 p) {
    if (!d_cont.get(p)) d_first.set(p);
  });
  const Dir in_port = opposite(hops[len - 1]);
  if (!d_cont.empty()) emit(arrival, dst, d_cont, AtomicOp::ps_sum(in_port, /*consec=*/true));
  if (!d_first.empty())
    emit(arrival, dst, d_first, AtomicOp::ps_sum(in_port, /*consec=*/false));
  occupy_router(Net::Ps, dst, arrival, mask);
  summed_[dst] |= mask;
  mask.for_each([&](u16 p) { ps_ready_[dst][p] = arrival + 1; });
  return arrival + 1;
}

void Scheduler::finish_root(u32 root) {
  const MappedCore& rc = out_.cores[root];
  SJ_REQUIRE(rc.spiking, "finish_root: core is not a root");
  const PlaneMask& sm = rc.spike_mask;
  u32 t = acc_done_;
  sm.for_each([&](u16 p) { t = std::max(t, ps_ready_[root][p]); });

  const PlaneMask m_sum = sm & summed_[root];
  PlaneMask m_loc = PlaneMask::none();
  sm.for_each([&](u16 p) {
    if (!m_sum.get(p)) m_loc.set(p);
  });

  u32 spike_cycle = t;
  if (!m_sum.empty()) {
    // Eject the accumulated sum to the spiking logic, then fire from it.
    while (!router_free(Net::Ps, root, t, m_sum)) ++t;
    emit(t, root, m_sum, AtomicOp::ps_eject(/*fromSumBuf=*/true));
    occupy_router(Net::Ps, root, t, m_sum);
    spike_cycle = t + 1;
  }
  while (!router_free(Net::Spike, root, spike_cycle, sm)) ++spike_cycle;
  if (!m_sum.empty()) emit(spike_cycle, root, m_sum, AtomicOp::spk_spike(/*sumOrLocal=*/true));
  if (!m_loc.empty()) emit(spike_cycle, root, m_loc, AtomicOp::spk_spike(/*sumOrLocal=*/false));
  occupy_router(Net::Spike, root, spike_cycle, sm);
  spike_ready_[root] = spike_cycle + 1;
}

u32 Scheduler::spike_ready(u32 root) const { return spike_ready_[root]; }

void Scheduler::spike_multicast(u32 root,
                                const std::vector<std::pair<u32, PlaneMask>>& dests) {
  if (dests.empty()) return;
  // Visit destinations in nearest-first XY scan order ("X-Y routed to
  // successive multicast destinations", §II). A spike pauses one cycle in
  // each destination's buffer register before moving on. Long destination
  // lists are split into several bounded chains (re-injected from the root's
  // persistent spike register) so one fan-out does not serialize the whole
  // timestep.
  constexpr usize kMaxStops = 8;
  std::vector<std::pair<u32, PlaneMask>> order = dests;
  const Coord rpos = out_.cores[root].pos;
  std::sort(order.begin(), order.end(), [&](const auto& a, const auto& b) {
    const Coord pa = out_.cores[a.first].pos, pb = out_.cores[b.first].pos;
    const i32 da = manhattan(rpos, pa), db = manhattan(rpos, pb);
    if (da != db) return da < db;
    if (pa.col != pb.col) return pa.col < pb.col;
    return pa.row < pb.row;
  });
  if (order.size() > kMaxStops) {
    for (usize lo = 0; lo < order.size(); lo += kMaxStops) {
      const usize hi = std::min(order.size(), lo + kMaxStops);
      spike_multicast(root, {order.begin() + static_cast<std::ptrdiff_t>(lo),
                             order.begin() + static_cast<std::ptrdiff_t>(hi)});
    }
    return;
  }

  // Planes still needed at or after each stop.
  std::vector<PlaneMask> suffix(order.size() + 1, PlaneMask::none());
  for (usize i = order.size(); i-- > 0;) suffix[i] = suffix[i + 1] | order[i].second;

  // Flatten the chain into per-cycle steps.
  struct Step {
    u32 core;
    u32 offset;      // cycles after chain start
    bool movement;   // forward (SEND/BYPASS) vs destination RECV
    Dir out;         // movement only
    i32 dest_index;  // RECV only
    PlaneMask mask;
  };
  std::vector<Step> steps;
  {
    u32 cur = root;
    u32 off = 0;
    for (usize i = 0; i < order.size(); ++i) {
      const u32 dst = order[i].first;
      SJ_ASSERT(dst != cur, "multicast: duplicate destination core");
      const std::vector<Dir> hops = xy_route(out_.cores[cur].pos, out_.cores[dst].pos);
      for (const Dir h : hops) {
        steps.push_back(Step{cur, off, true, h, -1, suffix[i]});
        cur = neighbor(cur, h);
        ++off;
      }
      steps.push_back(Step{cur, off, false, Dir::North, static_cast<i32>(i),
                           order[i].second});
      ++off;  // forwarding (if any) departs the cycle after the RECV
    }
  }
  // Arrival port of each step = opposite of the previous movement's out.
  std::vector<Dir> in_port(steps.size(), Dir::North);
  for (usize i = 1; i < steps.size(); ++i) {
    usize j = i;
    while (j-- > 0) {
      if (steps[j].movement) {
        in_port[i] = opposite(steps[j].out);
        break;
      }
    }
  }

  // Find a start cycle where the whole chain is conflict-free.
  u32 t = spike_ready_[root];
  for (;; ++t) {
    bool ok = true;
    for (const Step& s : steps) {
      if (!router_free(Net::Spike, s.core, t + s.offset, s.mask)) {
        ok = false;
        break;
      }
      // Movement links are held for two cycles: the delivered value must
      // stay readable in the next router's input register one extra cycle
      // (a parked multicast spike forwards the cycle after its RECV).
      if (s.movement && (!spike_link_free(s.core, s.out, t + s.offset, s.mask) ||
                         !spike_link_free(s.core, s.out, t + s.offset + 1, s.mask))) {
        ok = false;
        break;
      }
    }
    if (ok) break;
  }

  // Emit.
  for (usize si = 0; si < steps.size(); ++si) {
    const Step& s = steps[si];
    const u32 cyc = t + s.offset;
    if (s.movement) {
      if (si == 0) {
        emit(cyc, s.core, s.mask, AtomicOp::spk_send(s.out));
      } else {
        emit(cyc, s.core, s.mask, AtomicOp::spk_bypass(in_port[si], s.out));
      }
      occupy_router(Net::Spike, s.core, cyc, s.mask);
      occupy_spike_link(s.core, s.out, cyc, s.mask);
      occupy_spike_link(s.core, s.out, cyc + 1, s.mask);
    } else {
      const bool hold = out_.cores[s.core].spike_hold > 0;
      emit(cyc, s.core, s.mask, AtomicOp::spk_recv(in_port[si], hold));
      occupy_router(Net::Spike, s.core, cyc, s.mask);
    }
  }
}

}  // namespace sj::map
