// The two NoCs, split along the artifact/state seam the batch engine
// exploits:
//
//   NocTopology — everything *immutable* about a mapped grid: tile
//   coordinates, neighbor wiring, the directed links between tiles, chip
//   boundary geometry and the NoC wire width. Built once per compiled
//   network and shared read-only by any number of concurrent contexts.
//
//   NocState — everything *mutable* about one frame in flight: the per-tile
//   router register files and the staged two-phase writes. Nothing is kept
//   per link: a router has no buffers, so the input-port register a link
//   feeds is that wire's previous value, and LinkTraffic::*_toggles count
//   real bit-flips against it. One NocState per simulation context;
//   movement calls take the topology they route against explicitly, and a
//   state refuses (InternalError) a topology whose dimensions differ from
//   the one it was sized for.
//
// Two-phase cycle semantics are owned by the state: staged writes land in
// the receiving router's input-port registers in staging order at
// commit_cycle(), reproducing the RTL's "every register reads old values,
// writes become visible next cycle" rule.
//
// Sends charge TrafficCounters with what depends on the data: wire toggles
// (Hamming distance against the previous value on the same plane-wire,
// read from the destination's input-port register).
// Flits, payload bits and the inter-chip aggregates the power model
// consumes depend only on the op and its mask, so they are counted once per
// program at lowering (map::StaticCensus) and added per frame by the engine.
//
// Movement stages a whole 256-plane mask per call (`send_ps_masked`/
// `send_spike_masked`, keyed by a pre-resolved LinkId); a one-plane send is
// a one-plane mask. Each send stages a snapshot and makes one masked toggle
// count (simd::toggle_count_i16 for PS values, toggle_count_bits for spike
// words); commit_cycle() lands each staged PS write with one masked
// simd::copy_i16.
#pragma once

#include <vector>

#include "core/arch.h"
#include "noc/link.h"
#include "noc/router.h"

namespace sj::noc {

/// Read-only wiring of a `grid_rows` x `grid_cols` tile grid. Safe to share
/// across threads: nothing here changes after construction.
class NocTopology {
 public:
  /// `positions[c]` is the coordinate of core c; every coordinate must be
  /// unique and on-grid. Chip boundaries fall at multiples of
  /// arch.chip_rows/chip_cols (links crossing one are marked interchip).
  NocTopology(const core::ArchParams& arch, i32 grid_rows, i32 grid_cols,
              const std::vector<Coord>& positions);

  usize num_cores() const { return positions_.size(); }
  usize num_links() const { return links_.size(); }
  const std::vector<Link>& links() const { return links_; }
  const Link& link(LinkId id) const { return links_[id]; }
  i32 grid_rows() const { return grid_rows_; }
  i32 grid_cols() const { return grid_cols_; }
  i32 noc_bits() const { return noc_bits_; }
  Coord position(u32 core) const { return positions_[core]; }

  /// Neighbor of `core` in direction `d`, or kInvalidCore off-grid.
  u32 neighbor(u32 core, Dir d) const {
    return neighbor_[static_cast<usize>(d)][core];
  }

  /// Outgoing link of `core` in direction `d`, or kInvalidLink off-grid.
  LinkId link_id(u32 core, Dir d) const {
    return link_id_[static_cast<usize>(d)][core];
  }

  /// A counter table pre-sized to this topology.
  TrafficCounters make_counters() const {
    TrafficCounters tc;
    tc.ensure(num_links());
    return tc;
  }

 private:
  i32 grid_rows_, grid_cols_;
  i32 noc_bits_;
  std::vector<Coord> positions_;
  std::array<std::vector<u32>, 4> neighbor_;    // [dir][core]
  std::array<std::vector<LinkId>, 4> link_id_;  // [dir][core]
  std::vector<Link> links_;
};

/// The mutable register/staging state of one frame stream. Sized by a
/// topology at construction; every movement call names the topology it
/// routes against, and asserts it is dimension-compatible with the sizing
/// one (a mismatched pairing would otherwise index out of bounds). Not
/// thread-safe — one NocState per worker, like TrafficCounters.
///
/// State can be *compacted*: a mapped grid is mostly filler tiles whose
/// routers a lowered program can never write, so per-context storage only
/// materializes the touched routers (a dense array behind a core -> slot
/// table). Core ids stay the topology's ids at every public call; only the
/// backing allocation shrinks. Routers are the only state there is to
/// compact: the NoC keeps nothing per link.
class NocState {
 public:
  /// Full state: every router allocated.
  explicit NocState(const NocTopology& topo);

  /// Compacted state: router registers exist only for `cores` — typically a
  /// lowered program's touch set (op cores + send destinations). Touching a
  /// router outside the set, or sending to one, is an InternalError: a
  /// correctly lowered program cannot reference it. Duplicates in the list
  /// are tolerated.
  NocState(const NocTopology& topo, const std::vector<u32>& cores);

  Router& router(u32 core) { return routers_[router_slot(core)]; }
  const Router& router(u32 core) const { return routers_[router_slot(core)]; }

  /// Router register files actually allocated (== num_cores for full state,
  /// the touched-core count for compacted state).
  usize allocated_routers() const { return routers_.size(); }

  // --- two-phase, toggle-accounted movement --------------------------------
  /// Stages `values[p]` for every plane `p` in `mask` onto link `lid` (the
  /// engine pre-resolves the LinkId at program lowering); each lands in the
  /// link's destination in[opposite(dir)] register at commit_cycle().
  /// Charges the link's wire toggles in `tc`, counted against that
  /// register. `values` must address a whole 256-plane file; a snapshot is
  /// taken, so the source register may change before commit_cycle(). No-op
  /// for an empty mask.
  void send_ps_masked(const NocTopology& topo, LinkId lid, const Router::Words& mask,
                      const i16* values, TrafficCounters& tc);
  /// Spike form: the payload is the bit-packed word group `bits` (masked
  /// down internally); toggle accounting is whole-word Hamming weight
  /// against the destination port's word group.
  void send_spike_masked(const NocTopology& topo, LinkId lid, const Router::Words& mask,
                         const Router::Words& bits, TrafficCounters& tc);

  /// Applies all staged writes in staging order (end of cycle).
  void commit_cycle();

  /// Frame-boundary reset: zeroes the listed routers (plus any staged
  /// writes) — every router a run could have written when the list is the
  /// cores a lowered ExecProgram references. Zeroing a port register also
  /// zeroes its wire's previous value, so the next send counts its toggles
  /// against zero. Does not touch any TrafficCounters. A duplicate-free
  /// list is the caller's job.
  void reset_subset(const std::vector<u32>& cores);

 private:
  // Dimensions of the sizing topology, asserted against the topology each
  // movement call routes over.
  void check_topology(const NocTopology& topo) const;

  // Staged masked writes. The user-provided empty constructors keep
  // emplace_back from value-zeroing the 512-byte payload, which each send
  // overwrites whole.
  struct PsWrite {
    PsWrite() {}
    u32 core;
    Dir port;
    Router::Words mask;
    std::array<i16, Router::kPlanes> values;  // the source file; masked planes land
  };
  struct SpkWrite {
    SpkWrite() {}
    u32 core;
    Dir port;
    Router::Words mask;
    Router::Words bits;  // pre-masked payload
  };

  // Slot of a core's router in the dense backing array; kNoSlot marks a
  // router the compaction left unallocated.
  static constexpr u32 kNoSlot = ~u32{0};
  usize router_slot(u32 core) const {
    const u32 s = router_slot_[core];
    SJ_ASSERT(s != kNoSlot, "NocState: router outside the compacted touch set");
    return s;
  }

  usize num_cores_;
  usize num_links_;
  std::vector<u32> router_slot_;  // core -> slot in routers_
  std::vector<Router> routers_;
  std::vector<PsWrite> ps_staged_;
  std::vector<SpkWrite> spk_staged_;
};

}  // namespace sj::noc
