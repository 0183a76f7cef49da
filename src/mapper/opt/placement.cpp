// Placement search (opt level 2).
//
// The greedy shelf placement packs units left-to-right in declaration order,
// which is fine for one chip but oblivious to chip boundaries on multi-chip
// grids: a unit straddling a seam, or two chatty units on different chips,
// pays popcount-weighted SerDes crossings on every timestep — the one link
// cost the hardware charges beyond its on-chip hops (4.4 pJ/bit, paper
// §III). This is a deterministic greedy-refinement hill climb seeded by the
// shelf result:
//
//   1. shelf re-packs under alternative unit orders (all permutations for
//      tiny unit counts, adjacent transpositions otherwise),
//   2. per-unit anchor moves (chip-aligned positions plus one-tile nudges),
//   3. pairwise anchor swaps,
//
// each candidate mapped to a (crossings, cycles) cost by the
// caller-provided evaluator and accepted only on strict lexicographic
// improvement. Geometric rejects (overlap, out of bounds) are free; only
// real evaluations draw from the budget, so the search degrades gracefully
// on big nets instead of blowing up mapping time.
#include <algorithm>
#include <numeric>

#include "mapper/opt/opt.h"

namespace sj::map::opt {

namespace {

bool fits(const PlacementProblem& p, const std::vector<PlaceAnchor>& a) {
  const usize n = p.units.size();
  for (usize i = 0; i < n; ++i) {
    if (a[i].row0 < 0 || a[i].col0 < 0) return false;
    if (a[i].col0 + p.units[i].cols > p.width) return false;
    if (p.max_rows > 0 && a[i].row0 + p.units[i].rows > p.max_rows) return false;
  }
  for (usize i = 0; i < n; ++i) {
    for (usize j = i + 1; j < n; ++j) {
      const bool apart = a[i].col0 + p.units[i].cols <= a[j].col0 ||
                         a[j].col0 + p.units[j].cols <= a[i].col0 ||
                         a[i].row0 + p.units[i].rows <= a[j].row0 ||
                         a[j].row0 + p.units[j].rows <= a[i].row0;
      if (!apart) return false;
    }
  }
  return true;
}

// Same shelf rule map_network uses, applied in `order` instead of unit order.
std::vector<PlaceAnchor> shelf_pack(const PlacementProblem& p,
                                    const std::vector<u32>& order) {
  std::vector<PlaceAnchor> a(p.units.size());
  i32 x = 0, y = 0, band = 0;
  for (const u32 u : order) {
    const i32 rows = p.units[u].rows, cols = p.units[u].cols;
    if (x + cols > p.width) {
      x = 0;
      y += band;
      band = 0;
    }
    a[u] = PlaceAnchor{y, x};
    x += cols;
    band = std::max(band, rows);
  }
  return a;
}

}  // namespace

std::vector<PlaceAnchor> refine_placement(const PlacementProblem& p,
                                          const std::vector<PlaceAnchor>& seed,
                                          PlacementCost* best_cost_out,
                                          i32* evals_used) {
  const usize n = p.units.size();
  i32 evals = 0;
  const auto eval = [&](const std::vector<PlaceAnchor>& a) -> PlacementCost {
    if (evals >= p.max_evals) return PlacementCost{};
    if (!fits(p, a)) return PlacementCost{};  // geometric reject: free
    ++evals;
    PlacementCost c = p.evaluate(a);
    if (c.valid && p.max_cycles > 0 && c.cycles > p.max_cycles) {
      c = PlacementCost{};  // over the cycle budget: never acceptable
    }
    return c;
  };

  std::vector<PlaceAnchor> best = seed;
  PlacementCost best_cost = eval(seed);
  const auto consider = [&](const std::vector<PlaceAnchor>& a) {
    const PlacementCost c = eval(a);
    if (c.better_than(best_cost)) {
      best = a;
      best_cost = c;
      return true;
    }
    return false;
  };

  if (n >= 2 && best_cost.valid) {
    // --- 1. shelf re-packs under alternative unit orders --------------------
    std::vector<u32> order(n);
    std::iota(order.begin(), order.end(), 0u);
    if (n <= 4) {
      std::vector<u32> perm = order;
      while (std::next_permutation(perm.begin(), perm.end()) &&
             evals < p.max_evals) {
        consider(shelf_pack(p, perm));
      }
    } else {
      for (usize i = 0; i + 1 < n && evals < p.max_evals; ++i) {
        std::vector<u32> perm = order;
        std::swap(perm[i], perm[i + 1]);
        consider(shelf_pack(p, perm));
      }
    }

    // --- 2./3. anchor moves + swaps, to a fixed point -----------------------
    bool improved = true;
    while (improved && evals < p.max_evals) {
      improved = false;
      for (usize u = 0; u < n && evals < p.max_evals; ++u) {
        // Candidate rows/cols: every chip-aligned position plus one-tile
        // nudges around the current anchor.
        std::vector<i32> rows_c, cols_c;
        for (i32 r = 0; p.max_rows <= 0 || r + p.units[u].rows <= p.max_rows;
             r += p.chip_rows) {
          rows_c.push_back(r);
          if (p.max_rows <= 0) break;
        }
        for (i32 c = 0; c + p.units[u].cols <= p.width; c += p.chip_cols) {
          cols_c.push_back(c);
        }
        for (const i32 d : {-1, 1}) {
          rows_c.push_back(best[u].row0 + d);
          cols_c.push_back(best[u].col0 + d);
        }
        for (const i32 r : rows_c) {
          for (const i32 c : cols_c) {
            if (r == best[u].row0 && c == best[u].col0) continue;
            std::vector<PlaceAnchor> cand = best;
            cand[u] = PlaceAnchor{r, c};
            if (consider(cand)) improved = true;
            if (evals >= p.max_evals) break;
          }
          if (evals >= p.max_evals) break;
        }
      }
      for (usize i = 0; i < n && evals < p.max_evals; ++i) {
        for (usize j = i + 1; j < n && evals < p.max_evals; ++j) {
          std::vector<PlaceAnchor> cand = best;
          std::swap(cand[i], cand[j]);
          if (consider(cand)) improved = true;
        }
      }
    }
  }

  if (best_cost_out != nullptr) *best_cost_out = best_cost;
  if (evals_used != nullptr) *evals_used = evals;
  return best;
}

}  // namespace sj::map::opt
