// Cycle-accurate, conflict-free scheduling of NoC operations.
//
// Shenjing's NoCs have no buffers, no flow control and no routing logic
// (§II); the *compiler* must therefore emit schedules in which, per
// per-neuron plane, every router executes at most one operation per cycle
// and every link carries at most one value per cycle. §III: "a packet
// (spike or PS) is scheduled to wait if the output port/link is occupied".
//
// The Scheduler tracks router occupancy in check_routes' own issue table
// (opt::IssueSlots, per (cycle, tile, block)) at plane granularity (the 256
// planes are physically independent networks) and greedily delays transfers
// until their whole path is free — exactly the paper's wait-on-busy rule. A
// PS link needs no table of its own: only its tile's PS router writes it, in
// the cycles that router is claimed. A spike link is also held the cycle
// after each send, so spike links keep a per-(tile, port, cycle) table.
#pragma once

#include <unordered_map>
#include <vector>

#include "mapper/opt/dataflow.h"
#include "mapper/program.h"

namespace sj::map {

/// An XY (column-first) route: the sequence of output ports taken from
/// `from` to `to`. Empty when from == to.
std::vector<Dir> xy_route(Coord from, Coord to);

/// Builds the per-timestep operation schedule for a MappedNetwork whose
/// cores are already placed on its full grid (route hops resolve through
/// make_topology of it).
class Scheduler {
 public:
  Scheduler(MappedNetwork& out, const ArchParams& arch);

  /// Emits the cycle-0 ACC op for every core.
  void emit_acc_all();

  /// Schedules a PS transfer src -> dst (with in-network SUM at dst) for the
  /// given planes. Sends the accumulated sum for planes already summed at
  /// src, the local PS otherwise. Returns the cycle after the SUM completes.
  u32 ps_transfer(u32 src, u32 dst, const PlaneMask& mask);

  /// Finalizes an accumulation root: ejects summed planes to the spiking
  /// logic and emits the SPIKE op(s). Records the root's spike-ready cycle.
  void finish_root(u32 root);

  /// Schedules a multicast spike chain from `root` to each (core, mask)
  /// destination, visiting them in XY order.
  void spike_multicast(u32 root, const std::vector<std::pair<u32, PlaneMask>>& dests);

  /// Cycle after which the root's spike register is valid.
  u32 spike_ready(u32 root) const;

  /// Largest scheduled cycle + 1.
  u32 horizon() const { return horizon_; }

  /// Planes of `c` whose values live in the sum buffer (have been SUMmed).
  const PlaneMask& summed(u32 c) const { return summed_[c]; }

 private:
  // The two networks, valued as their routers' issue blocks.
  enum class Net : u8 {
    Ps = static_cast<u8>(core::Block::PsRouter),
    Spike = static_cast<u8>(core::Block::SpikeRouter),
  };

  u64 link_key(u32 c, Dir d, u32 cycle) const;
  bool router_free(Net net, u32 c, u32 cycle, const PlaneMask& m) const;
  bool spike_link_free(u32 c, Dir d, u32 cycle, const PlaneMask& m) const;
  void occupy_router(Net net, u32 c, u32 cycle, const PlaneMask& m);
  void occupy_spike_link(u32 c, Dir d, u32 cycle, const PlaneMask& m);
  void emit(u32 cycle, u32 c, const PlaneMask& m, const AtomicOp& op);
  u32 neighbor(u32 c, Dir d) const;

  MappedNetwork& out_;
  const ArchParams& arch_;
  const noc::NocTopology topo_;  // $DST resolution over out_'s grid
  u32 acc_done_;  // cycle at which local partial sums become valid
  u32 horizon_ = 0;

  opt::IssueSlots router_busy_;
  std::unordered_map<u64, PlaneMask> link_busy_;
  std::vector<std::vector<u32>> ps_ready_;  // [core][plane] cycle PS final-so-far
  std::vector<PlaneMask> summed_;
  std::vector<u32> spike_ready_;
};

}  // namespace sj::map
