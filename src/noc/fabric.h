// The two NoCs, split along the artifact/state seam the batch engine
// exploits:
//
//   NocTopology — everything *immutable* about a mapped grid: tile
//   coordinates, neighbor wiring, the directed links between tiles, chip
//   boundary geometry and the NoC wire width. Built once per compiled
//   network and shared read-only by any number of concurrent contexts.
//
//   NocState — everything *mutable* about one frame in flight: the per-tile
//   router register files, the staged two-phase writes, and the per-wire
//   toggle history that makes LinkTraffic::*_toggles count real bit-flips.
//   One NocState per simulation context; movement calls take the topology
//   they route against explicitly, and a state refuses (InternalError) a
//   topology whose dimensions differ from the one it was sized for.
//
// Two-phase cycle semantics are owned by the state: staged writes land in
// the receiving router's input-port registers in staging order at
// commit_cycle(), reproducing the RTL's "every register reads old values,
// writes become visible next cycle" rule.
//
// Traffic is charged to TrafficCounters at send time: payload bits, flits,
// wire toggles (Hamming distance against the previous value on the same
// plane-wire) and the inter-chip aggregates the power model consumes.
//
// Movement has two granularities. The plane-parallel engine stages a whole
// 256-plane mask per call (`send_ps_masked`/`send_spike_masked`, keyed by a
// pre-resolved LinkId) and charges flit/bit counters with one popcount and
// spike toggles with whole-word Hamming weights. The scalar per-plane
// `send_ps`/`send_spike` wrappers stage a single-plane mask through the same
// path, so staging order — and therefore commit order — is shared between
// the two granularities.
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

/// The mutable register/staging/toggle state of one frame stream. Sized by
/// a topology at construction; every movement call names the topology it
/// routes against, and asserts it is dimension-compatible with the sizing
/// one (a mismatched pairing would otherwise index out of bounds). Not
/// thread-safe — one NocState per worker, like TrafficCounters.
///
/// State can be *compacted*: a mapped grid is mostly filler tiles whose
/// routers a lowered program can never write, so per-context storage only
/// materializes the touched subset (dense arrays behind a core/link -> slot
/// table). Core and link ids stay the topology's ids at every public
/// call; only the backing allocation shrinks.
class NocState {
 public:
  /// Full state: every router and every link's toggle history allocated.
  explicit NocState(const NocTopology& topo);

  /// Compacted state: router registers exist only for `cores` and toggle
  /// history only for `links` — typically a lowered program's touch sets
  /// (op cores + send destinations, and the links the program sends on).
  /// Touching a router or sending on a link outside the sets is an
  /// InternalError: a correctly lowered program cannot reference them.
  /// Duplicates in the lists are tolerated.
  NocState(const NocTopology& topo, const std::vector<u32>& cores,
           const std::vector<LinkId>& links);

  Router& router(u32 core) { return routers_[router_slot(core)]; }
  const Router& router(u32 core) const { return routers_[router_slot(core)]; }

  /// Router register files actually allocated (== num_cores for full state,
  /// the touched-core count for compacted state).
  usize allocated_routers() const { return routers_.size(); }
  /// Links with toggle history allocated.
  usize allocated_toggle_links() const { return ps_last_.size(); }

  // --- two-phase, traffic-accounted movement ------------------------------
  /// Stages a 16-bit partial sum onto the outgoing link of `src` in
  /// direction `d`; it lands in the neighbor's in[opposite(d)] register at
  /// commit_cycle(). Charges the link in `tc`.
  void send_ps(const NocTopology& topo, u32 src, Dir d, u16 plane, i16 value,
               TrafficCounters& tc);
  /// Same for a 1-bit spike.
  void send_spike(const NocTopology& topo, u32 src, Dir d, u16 plane, bool value,
                  TrafficCounters& tc);

  /// Bulk form: stages `values[p]` for every plane `p` in `mask` onto link
  /// `lid` in one call (the plane-parallel engine pre-resolves the LinkId at
  /// program lowering). `values` must cover every masked strip; a snapshot
  /// is taken, so the source register may change before commit_cycle().
  /// Charges pop(mask) flits in one step. No-op for an empty mask.
  void send_ps_masked(const NocTopology& topo, LinkId lid, const Router::Words& mask,
                      const i16* values, TrafficCounters& tc);
  /// Bulk spike form: the payload is the bit-packed word group `bits`
  /// (masked down internally); toggle accounting is whole-word Hamming
  /// weight against the wire's previous word group.
  void send_spike_masked(const NocTopology& topo, LinkId lid, const Router::Words& mask,
                         const Router::Words& bits, TrafficCounters& tc);

  /// Applies all staged writes in staging order (end of cycle).
  void commit_cycle();

  /// Zeroes router registers, staged writes, and toggle-tracking state
  /// (frame boundary). Does not touch any TrafficCounters.
  void reset();

  /// Selective frame-boundary reset: zeroes only the listed routers and the
  /// toggle history of the listed links (plus any staged writes).
  /// Equivalent to reset() when the lists cover every router and link the
  /// run could have written — e.g. the cores and links referenced by a
  /// lowered ExecProgram. Duplicate-free lists are the caller's job.
  void reset_subset(const std::vector<u32>& cores, const std::vector<LinkId>& links);

 private:
  // Dimensions of the sizing topology, asserted against the topology each
  // movement call routes over.
  void check_topology(const NocTopology& topo) const;

  // Staged masked writes; scalar sends stage a single-plane mask. The
  // user-provided empty constructors keep emplace_back from value-zeroing
  // the 512-byte payload that masked_copy overwrites anyway.
  struct PsWrite {
    PsWrite() {}
    u32 core;
    Dir port;
    Router::Words mask;
    std::array<i16, Router::kPlanes> values;  // masked planes valid
  };
  struct SpkWrite {
    SpkWrite() {}
    u32 core;
    Dir port;
    Router::Words mask;
    Router::Words bits;  // pre-masked payload
  };

  // Slot of a core's router / a link's toggle history in the dense backing
  // arrays; kNoSlot marks state the compaction left unallocated.
  static constexpr u32 kNoSlot = ~u32{0};
  usize router_slot(u32 core) const {
    const u32 s = router_slot_[core];
    SJ_ASSERT(s != kNoSlot, "NocState: router outside the compacted touch set");
    return s;
  }
  usize link_slot(LinkId link) const {
    const u32 s = link_slot_[link];
    SJ_ASSERT(s != kNoSlot, "NocState: link outside the compacted touch set");
    return s;
  }

  usize num_cores_;
  usize num_links_;
  std::vector<u32> router_slot_;  // core -> slot in routers_
  std::vector<u32> link_slot_;    // link -> slot in ps_last_/spk_last_
  std::vector<Router> routers_;
  // Previous value on each allocated plane-wire, for toggle accounting.
  std::vector<std::vector<i16>> ps_last_;  // [link slot][plane]
  std::vector<Router::Words> spk_last_;    // [link slot], bit-packed
  std::vector<PsWrite> ps_staged_;
  std::vector<SpkWrite> spk_staged_;
};

}  // namespace sj::noc
