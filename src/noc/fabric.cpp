#include "noc/fabric.h"

#include <cstring>

#include "common/simd.h"

namespace sj::noc {

NocTopology::NocTopology(const core::ArchParams& arch, i32 grid_rows, i32 grid_cols,
                         const std::vector<Coord>& positions)
    : grid_rows_(grid_rows),
      grid_cols_(grid_cols),
      noc_bits_(arch.noc_bits),
      positions_(positions) {
  SJ_REQUIRE(grid_rows >= 1 && grid_cols >= 1, "NocTopology: empty grid");
  const usize n = positions.size();
  SJ_REQUIRE(n >= 1, "NocTopology: no cores");

  // Coordinate -> core lookup (also rejects duplicates / off-grid tiles).
  std::vector<std::vector<u32>> grid(
      static_cast<usize>(grid_rows),
      std::vector<u32>(static_cast<usize>(grid_cols), kInvalidCore));
  for (u32 c = 0; c < n; ++c) {
    const Coord p = positions[c];
    SJ_REQUIRE(p.row >= 0 && p.row < grid_rows && p.col >= 0 && p.col < grid_cols,
               "NocTopology: core " + std::to_string(c) + " off grid at " + to_string(p));
    u32& cell = grid[static_cast<usize>(p.row)][static_cast<usize>(p.col)];
    SJ_REQUIRE(cell == kInvalidCore,
               "NocTopology: two cores share tile " + to_string(p));
    cell = c;
  }

  const auto chip_of = [&](Coord c) {
    return std::pair<i32, i32>{c.row / arch.chip_rows, c.col / arch.chip_cols};
  };

  for (int d = 0; d < kNumDirs; ++d) {
    neighbor_[static_cast<usize>(d)].assign(n, kInvalidCore);
    link_id_[static_cast<usize>(d)].assign(n, kInvalidLink);
  }
  for (u32 c = 0; c < n; ++c) {
    const Coord p = positions[c];
    const auto try_link = [&](Dir d, i32 row, i32 col) {
      if (row < 0 || row >= grid_rows || col < 0 || col >= grid_cols) return;
      const u32 nb = grid[static_cast<usize>(row)][static_cast<usize>(col)];
      if (nb == kInvalidCore) return;  // hole in a sparse grid: no wire
      neighbor_[static_cast<usize>(d)][c] = nb;
      link_id_[static_cast<usize>(d)][c] = static_cast<LinkId>(links_.size());
      Link ln;
      ln.src = c;
      ln.dst = nb;
      ln.dir = d;
      ln.src_pos = p;
      ln.dst_pos = positions[nb];
      ln.interchip = chip_of(ln.src_pos) != chip_of(ln.dst_pos);
      links_.push_back(ln);
    };
    try_link(Dir::North, p.row - 1, p.col);
    try_link(Dir::South, p.row + 1, p.col);
    try_link(Dir::East, p.row, p.col + 1);
    try_link(Dir::West, p.row, p.col - 1);
  }
}

NocState::NocState(const NocTopology& topo)
    : num_cores_(topo.num_cores()), num_links_(topo.num_links()) {
  // Full state: identity slot table, every router allocated.
  router_slot_.resize(num_cores_);
  for (usize c = 0; c < num_cores_; ++c) router_slot_[c] = static_cast<u32>(c);
  routers_.resize(num_cores_);
}

NocState::NocState(const NocTopology& topo, const std::vector<u32>& cores)
    : num_cores_(topo.num_cores()), num_links_(topo.num_links()) {
  router_slot_.assign(num_cores_, kNoSlot);
  usize n_routers = 0;
  for (const u32 c : cores) {
    SJ_REQUIRE(c < num_cores_, "NocState: touched core off the topology");
    if (router_slot_[c] == kNoSlot) router_slot_[c] = static_cast<u32>(n_routers++);
  }
  routers_.resize(n_routers);
}

void NocState::check_topology(const NocTopology& topo) const {
  SJ_ASSERT(topo.num_cores() == num_cores_ && topo.num_links() == num_links_,
            "NocState: routed over a topology it was not sized for");
}

namespace {

inline bool no_planes(const Router::Words& mask) {
  return (mask[0] | mask[1] | mask[2] | mask[3]) == 0;
}

}  // namespace

void NocState::send_ps_masked(const NocTopology& topo, LinkId lid, const Router::Words& mask,
                              const i16* values, TrafficCounters& tc) {
  check_topology(topo);
  SJ_ASSERT(lid != kInvalidLink, "noc: PS send off grid edge");
  if (no_planes(mask)) return;
  const Link& ln = topo.link(lid);
  const Router& dst = routers_[router_slot(ln.dst)];

  PsWrite& w = ps_staged_.emplace_back();
  w.core = ln.dst;
  w.port = opposite(ln.dir);
  w.mask = mask;
  // A whole-file snapshot: commit_cycle() lands only the masked planes.
  std::memcpy(w.values.data(), values, sizeof(w.values));

  // Wire-toggle Hamming accounting against the destination port register,
  // which until this cycle's commit_cycle() holds the wire's previous value:
  // commit_cycle() is the only writer of a port register, each port is fed
  // by exactly one link, a frame reset zeroes the register along with the
  // wire, and check_routes' issue rule (opt::IssueSlots, keyed modulo II on
  // a pipelined schedule) writes a link plane at most once per cycle, so no
  // other write to these planes is staged.
  const u16 wire_mask = static_cast<u16>((u32{1} << topo.noc_bits()) - 1);
  const i64 toggles = simd::toggle_count_i16(mask, dst.ps_in_data(w.port), values, wire_mask);
  tc.ensure(topo.num_links());
  tc.links[lid].ps_toggles += toggles;
}

void NocState::send_spike_masked(const NocTopology& topo, LinkId lid,
                                 const Router::Words& mask,
                                 const Router::Words& bits, TrafficCounters& tc) {
  check_topology(topo);
  SJ_ASSERT(lid != kInvalidLink, "noc: spike send off grid edge");
  if (no_planes(mask)) return;
  const Link& ln = topo.link(lid);
  const Router& dst = routers_[router_slot(ln.dst)];

  SpkWrite& w = spk_staged_.emplace_back();
  w.core = ln.dst;
  w.port = opposite(ln.dir);
  w.mask = mask;
  for (usize wi = 0; wi < Router::kWords; ++wi) w.bits[wi] = bits[wi] & mask[wi];
  // Toggles count against the destination port register, the wire's
  // previous value (see send_ps_masked).
  const i64 toggles = simd::toggle_count_bits(mask, dst.spk_in_words(w.port), bits);
  tc.ensure(topo.num_links());
  tc.links[lid].spike_toggles += toggles;
}

void NocState::commit_cycle() {
  for (const PsWrite& w : ps_staged_) {
    simd::copy_i16(w.mask, w.values.data(), routers_[router_slot(w.core)].ps_in_data(w.port));
  }
  for (const SpkWrite& w : spk_staged_) {
    Router::Words& reg = routers_[router_slot(w.core)].spk_in_words(w.port);
    for (int wi = 0; wi < Router::kWords; ++wi) {
      const u64 m = w.mask[static_cast<usize>(wi)];
      reg[static_cast<usize>(wi)] =
          (reg[static_cast<usize>(wi)] & ~m) | w.bits[static_cast<usize>(wi)];
    }
  }
  ps_staged_.clear();
  spk_staged_.clear();
}

void NocState::reset_subset(const std::vector<u32>& cores) {
  for (const u32 c : cores) routers_[router_slot(c)].reset();
  ps_staged_.clear();
  spk_staged_.clear();
}

}  // namespace sj::noc
