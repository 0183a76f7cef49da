// NoC link model: topology records and per-link traffic counters.
//
// A Shenjing tile pair is connected by a *bundle* of plane-wires: 256
// 16-bit partial-sum channels and 256 1-bit spike channels, one per neuron
// plane, all sharing the same geometric hop (§II: "each PS NoC is dedicated
// exclusively to the same neuron in each core"). One Link record describes
// one *directed* hop of that bundle; the PS and spike networks share the
// record (same endpoints) and split the counters.
//
// Counters are deliberately separated from topology: a NocTopology (fixed
// wiring) is shared by a simulation run, while TrafficCounters are cheap
// value objects that each worker thread accumulates privately and merges,
// exactly like sim::SimStats.
#pragma once

#include <algorithm>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace sj::noc {

/// Index of a directed link in NocTopology::links().
using LinkId = u32;

inline constexpr u32 kInvalidCore = ~u32{0};
inline constexpr LinkId kInvalidLink = ~LinkId{0};

/// One directed tile-to-tile hop of the plane-wire bundle (static topology).
struct Link {
  u32 src = kInvalidCore;  // core index of the sending tile
  u32 dst = kInvalidCore;  // core index of the receiving tile
  Dir dir = Dir::North;    // direction of travel, src -> dst
  Coord src_pos, dst_pos;  // grid coordinates of the endpoints
  bool interchip = false;  // endpoints lie on different chips (SerDes hop)
};

/// Mutable traffic counters of one directed link (one entry per fabric
/// link). `flits` counts values moved (per plane, per cycle); `bits` is the
/// wire payload (flits * noc_bits for PS, flits * 1 for spikes); `toggles`
/// counts wire bit-flips against the previous value on the same plane-wire —
/// the switching-energy proxy a gate-level power tool would integrate.
struct LinkTraffic {
  i64 ps_flits = 0;
  i64 ps_bits = 0;
  i64 ps_toggles = 0;
  i64 spike_flits = 0;  // spike bits == spike flits (1-bit payload)
  i64 spike_toggles = 0;

  i64 total_bits() const { return ps_bits + spike_flits; }
  bool idle() const { return ps_flits == 0 && spike_flits == 0; }

  void merge(const LinkTraffic& o) {
    ps_flits += o.ps_flits;
    ps_bits += o.ps_bits;
    ps_toggles += o.ps_toggles;
    spike_flits += o.spike_flits;
    spike_toggles += o.spike_toggles;
  }
};

/// Per-link accounting for one simulation shard; indexed by LinkId.
/// Inter-chip totals are maintained incrementally so the aggregate the
/// power model needs is available without re-walking the topology.
struct TrafficCounters {
  std::vector<LinkTraffic> links;
  i64 interchip_ps_bits = 0;
  i64 interchip_spike_bits = 0;

  bool empty() const { return links.empty(); }

  /// Lazily sizes the per-link table (fabrics call this on first use).
  void ensure(usize num_links) {
    if (links.size() < num_links) links.resize(num_links);
  }

  /// Zeroes every counter, keeping the table's allocation — for hot paths
  /// that drain per-frame tallies (see SimContext::drain_stats).
  void clear() {
    std::fill(links.begin(), links.end(), LinkTraffic{});
    interchip_ps_bits = 0;
    interchip_spike_bits = 0;
  }

  i64 total_ps_bits() const {
    i64 n = 0;
    for (const auto& l : links) n += l.ps_bits;
    return n;
  }
  i64 total_spike_bits() const {
    i64 n = 0;
    for (const auto& l : links) n += l.spike_flits;
    return n;
  }

  /// Element-wise accumulate. Either side may be empty (unsized); sized
  /// operands must come from the same fabric (same link count).
  void merge(const TrafficCounters& o) {
    interchip_ps_bits += o.interchip_ps_bits;
    interchip_spike_bits += o.interchip_spike_bits;
    if (o.links.empty()) return;
    if (links.empty()) {
      links = o.links;
      return;
    }
    SJ_REQUIRE(links.size() == o.links.size(),
               "TrafficCounters::merge: link tables from different fabrics");
    for (usize i = 0; i < links.size(); ++i) links[i].merge(o.links[i]);
  }
};

}  // namespace sj::noc
