#include "noc/fabric.h"

#include <bit>

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
  // Full state: identity slot tables, everything allocated.
  router_slot_.resize(num_cores_);
  for (usize c = 0; c < num_cores_; ++c) router_slot_[c] = static_cast<u32>(c);
  link_slot_.resize(num_links_);
  for (usize l = 0; l < num_links_; ++l) link_slot_[l] = static_cast<u32>(l);
  routers_.resize(num_cores_);
  ps_last_.assign(num_links_, std::vector<i16>(Router::kPlanes, 0));
  spk_last_.assign(num_links_, {});
}

NocState::NocState(const NocTopology& topo, const std::vector<u32>& cores,
                   const std::vector<LinkId>& links)
    : num_cores_(topo.num_cores()), num_links_(topo.num_links()) {
  router_slot_.assign(num_cores_, kNoSlot);
  usize n_routers = 0;
  for (const u32 c : cores) {
    SJ_REQUIRE(c < num_cores_, "NocState: touched core off the topology");
    if (router_slot_[c] == kNoSlot) router_slot_[c] = static_cast<u32>(n_routers++);
  }
  routers_.resize(n_routers);
  link_slot_.assign(num_links_, kNoSlot);
  usize n_links = 0;
  for (const LinkId l : links) {
    SJ_REQUIRE(l < num_links_, "NocState: touched link off the topology");
    if (link_slot_[l] == kNoSlot) link_slot_[l] = static_cast<u32>(n_links++);
  }
  ps_last_.assign(n_links, std::vector<i16>(Router::kPlanes, 0));
  spk_last_.assign(n_links, {});
}

void NocState::check_topology(const NocTopology& topo) const {
  SJ_ASSERT(topo.num_cores() == num_cores_ && topo.num_links() == num_links_,
            "NocState: routed over a topology it was not sized for");
}

namespace {

inline int popcount_words(const Router::Words& w) {
  return std::popcount(w[0]) + std::popcount(w[1]) + std::popcount(w[2]) +
         std::popcount(w[3]);
}

inline Router::Words single_plane(u16 plane) {
  Router::Words m{};
  m[plane >> 6] = u64{1} << (plane & 63);
  return m;
}

}  // namespace

void NocState::send_ps(const NocTopology& topo, u32 src, Dir d, u16 plane, i16 value,
                       TrafficCounters& tc) {
  const LinkId lid = topo.link_id(src, d);
  SJ_ASSERT(lid != kInvalidLink, "noc: PS send off grid edge");
  std::array<i16, Router::kPlanes> values;
  values[plane] = value;  // only the masked plane is read
  send_ps_masked(topo, lid, single_plane(plane), values.data(), tc);
}

void NocState::send_spike(const NocTopology& topo, u32 src, Dir d, u16 plane, bool value,
                          TrafficCounters& tc) {
  const LinkId lid = topo.link_id(src, d);
  SJ_ASSERT(lid != kInvalidLink, "noc: spike send off grid edge");
  Router::Words bits{};
  if (value) bits[plane >> 6] = u64{1} << (plane & 63);
  send_spike_masked(topo, lid, single_plane(plane), bits, tc);
}

void NocState::send_ps_masked(const NocTopology& topo, LinkId lid, const Router::Words& mask,
                              const i16* values, TrafficCounters& tc) {
  check_topology(topo);
  SJ_ASSERT(lid != kInvalidLink, "noc: PS send off grid edge");
  const int pop = popcount_words(mask);
  if (pop == 0) return;
  const Link& ln = topo.link(lid);

  PsWrite& w = ps_staged_.emplace_back();
  w.core = ln.dst;
  w.port = opposite(ln.dir);
  w.mask = mask;
  Router::masked_copy(mask, values, w.values.data());

  tc.ensure(topo.num_links());
  LinkTraffic& t = tc.links[lid];
  t.ps_flits += pop;
  t.ps_bits += static_cast<i64>(pop) * topo.noc_bits();
  if (ln.interchip) tc.interchip_ps_bits += static_cast<i64>(pop) * topo.noc_bits();
  // Wire-toggle Hamming accounting: full mask words take the word-packed
  // SIMD kernel, partial words walk set bits. Identical counts either way.
  std::vector<i16>& last = ps_last_[link_slot(lid)];
  const u16 wire_mask = static_cast<u16>((u32{1} << topo.noc_bits()) - 1);
  i64 toggles = 0;
  for (int wi = 0; wi < Router::kWords; ++wi) {
    u64 word = mask[static_cast<usize>(wi)];
    if (word == 0) continue;
    const int base = wi * 64;
    if (word == ~u64{0}) {
      toggles += simd::toggle_update_i16(last.data() + base, values + base, 64, wire_mask);
    } else {
      while (word != 0) {
        const int p = base + std::countr_zero(word);
        word &= word - 1;
        toggles += std::popcount(static_cast<u32>(
            (static_cast<u16>(last[static_cast<usize>(p)]) ^ static_cast<u16>(values[p])) &
            wire_mask));
        last[static_cast<usize>(p)] = values[p];
      }
    }
  }
  t.ps_toggles += toggles;
}

void NocState::send_spike_masked(const NocTopology& topo, LinkId lid,
                                 const Router::Words& mask, const Router::Words& bits,
                                 TrafficCounters& tc) {
  check_topology(topo);
  SJ_ASSERT(lid != kInvalidLink, "noc: spike send off grid edge");
  const int pop = popcount_words(mask);
  if (pop == 0) return;
  const Link& ln = topo.link(lid);

  SpkWrite& w = spk_staged_.emplace_back();
  w.core = ln.dst;
  w.port = opposite(ln.dir);
  w.mask = mask;
  for (int wi = 0; wi < Router::kWords; ++wi) {
    w.bits[static_cast<usize>(wi)] =
        bits[static_cast<usize>(wi)] & mask[static_cast<usize>(wi)];
  }

  tc.ensure(topo.num_links());
  LinkTraffic& t = tc.links[lid];
  t.spike_flits += pop;
  if (ln.interchip) tc.interchip_spike_bits += pop;
  Router::Words& last = spk_last_[link_slot(lid)];
  i64 toggles = 0;
  for (int wi = 0; wi < Router::kWords; ++wi) {
    const u64 m = mask[static_cast<usize>(wi)];
    if (m == 0) continue;
    const u64 diff = (last[static_cast<usize>(wi)] ^ bits[static_cast<usize>(wi)]) & m;
    toggles += std::popcount(diff);
    last[static_cast<usize>(wi)] =
        (last[static_cast<usize>(wi)] & ~m) | (bits[static_cast<usize>(wi)] & m);
  }
  t.spike_toggles += toggles;
}

void NocState::commit_cycle() {
  for (const PsWrite& w : ps_staged_) {
    Router::masked_copy(w.mask, w.values.data(),
                        routers_[router_slot(w.core)].ps_in_data(w.port));
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

void NocState::reset() {
  for (Router& r : routers_) r.reset();
  ps_staged_.clear();
  spk_staged_.clear();
  for (auto& v : ps_last_) std::fill(v.begin(), v.end(), i16{0});
  for (auto& w : spk_last_) w = {};
}

void NocState::reset_subset(const std::vector<u32>& cores,
                            const std::vector<LinkId>& links) {
  for (const u32 c : cores) routers_[router_slot(c)].reset();
  ps_staged_.clear();
  spk_staged_.clear();
  for (const LinkId lid : links) {
    const usize s = link_slot(lid);
    std::fill(ps_last_[s].begin(), ps_last_[s].end(), i16{0});
    spk_last_[s] = {};
  }
}

}  // namespace sj::noc
