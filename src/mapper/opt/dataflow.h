// Internal dataflow model shared by the optimizer passes (mapper/opt), the
// pipeline analysis (mapper/pipeline.cpp) and check_routes: the one place
// that says which router registers each op writes, and the one issue rule
// (IssueSlots) every schedule obeys.
//
// Every pass reasons about the same two facts per scheduled op:
//
//   * which (core, register-file, plane) cells it reads and writes — the
//     router registers (port inputs, sum_buf, eject, spike_out) plus the
//     neuron-core registers (the local partial-sum file ACC writes, the
//     membrane potential SPIKE read-modify-writes), because dependence
//     edges need them even though same-cycle conflicts on them cannot
//     arise;
//   * the architectural read-after-write latency: `arch.acc_cycles` behind
//     an ACC (the neuron core streams 256 accumulations before the PS file
//     is stable — the same floor the greedy scheduler's `ps_ready` models),
//     one cycle behind everything else (two-phase commit: a staged or
//     latched write is readable the next cycle).
//
// $DST operands are resolved through the mapping's noc::NocTopology, the
// same resolver the engine lowers against.
#pragma once

#include <array>
#include <vector>

#include "mapper/program.h"
#include "noc/fabric.h"

namespace sj::map::opt {

/// Register files of one tile, per plane. The first eleven are the router
/// registers (PS block, then spike block); the last two are the neuron-core
/// registers.
enum class RegFile : u8 {
  PsInN = 0, PsInS, PsInE, PsInW,  // PS router port inputs
  PsSumBuf, PsEject,               // PS router accumulation / ejection
  SpkInN, SpkInS, SpkInE, SpkInW,  // spike router port inputs
  SpikeOut,                        // spike router injection register
  LocalPs,    // neuron-core partial-sum file (ACC writes, PS router reads)
  Potential,  // membrane potential (SPIKE read-modify-write)
  kRegFiles,
};

inline constexpr u32 kNumRegFiles = static_cast<u32>(RegFile::kRegFiles);

/// Port input registers: written by a neighbour's two-phase staged send, so
/// a write at cycle t is readable from t+1.
inline bool is_port(RegFile r) {
  return (r >= RegFile::PsInN && r <= RegFile::PsInW) ||
         (r >= RegFile::SpkInN && r <= RegFile::SpkInW);
}

/// One register access: `mask` planes of `reg` on tile `core`.
struct Access {
  u32 core = 0;
  RegFile reg = RegFile::LocalPs;
  PlaneMask mask;
};

/// Dataflow shape of one scheduled op.
struct OpModel {
  core::Block block = core::Block::NeuronCore;  // issue-conflict domain
  bool acc = false;  // readers of this op's write wait acc_cycles, not 1
  std::array<Access, 2> reads{};
  std::array<Access, 2> writes{};
  int num_reads = 0;
  int num_writes = 0;
};

/// The dataflow model of `t` (reads/writes with $DST resolved through
/// `topo`). Throws InvalidArgument on an off-grid hop, the condition
/// check_routes() reports as a Status.
OpModel op_model(const noc::NocTopology& topo, const TimedOp& t);

/// Packed (core, register-file) key for per-register tables.
inline u64 reg_key(u32 core, RegFile reg) {
  return (static_cast<u64>(core) << 8) | static_cast<u64>(reg);
}

/// The issue rule of routers with no buffers and no arbitration: one
/// (core, block) issues at most one op per plane per cycle, so ops share a
/// (cycle, core, block) slot only on disjoint planes. Every schedule obeys
/// this one table: the greedy Scheduler, check_routes and the coalesce and
/// repack passes key it by schedule cycle, build_pipeline by pipelined issue
/// cycle modulo II (where iterations k and k+1 issue together).
class IssueSlots {
 public:
  /// Whether `mask` is free in the (cycle, core, block) slot: none of its
  /// planes is claimed there.
  bool free(u32 cycle, u32 core, core::Block block, const PlaneMask& mask) const {
    if (table_.empty()) return true;
    const Entry& e = table_[probe(key(cycle, core, block))];
    return e.epoch != epoch_ || !e.busy.intersects(mask);
  }

  /// Claims `mask` in the (cycle, core, block) slot and returns true, or
  /// returns false, claiming nothing, when one of its planes is taken there.
  bool claim(u32 cycle, u32 core, core::Block block, const PlaneMask& mask) {
    PlaneMask& busy = slot(key(cycle, core, block));
    if (busy.intersects(mask)) return false;
    busy |= mask;
    return true;
  }

  /// Frees every slot at once, keeping the table (build_pipeline clears
  /// it once per op group and collision round).
  void clear() {
    ++epoch_;
    live_ = 0;
  }

 private:
  // Open addressing with linear probing; an entry is live while its epoch
  // is the table's.
  struct Entry {
    u64 key = 0;
    u32 epoch = 0;
    PlaneMask busy;
  };

  static u64 key(u32 cycle, u32 core, core::Block block) {
    return (u64{cycle} << 40) | (u64{core} << 8) | static_cast<u64>(block);
  }

  /// Index of `key`'s live entry, or of the dead entry it would take.
  usize probe(u64 key) const {
    const usize wrap = table_.size() - 1;
    usize i = (key * 0x9e3779b97f4a7c15ull) >> shift_;
    while (table_[i].epoch == epoch_ && table_[i].key != key) i = (i + 1) & wrap;
    return i;
  }

  PlaneMask& slot(u64 key) {
    if (2 * (live_ + 1) > table_.size()) grow();
    Entry& e = table_[probe(key)];
    if (e.epoch != epoch_) {
      e = Entry{key, epoch_, PlaneMask::none()};
      ++live_;
    }
    return e.busy;
  }

  /// Doubles the table, re-inserting the live entries.
  void grow();

  std::vector<Entry> table_;
  u32 epoch_ = 1;
  usize live_ = 0;
  int shift_ = 0;  // 64 - log2(table size), set by grow()
};

/// Tracks, per register file, which op last wrote each plane and who has
/// read it since — the state needed to emit RAW/WAR/WAW edges in one forward
/// walk. Planes sharing (writer, readers-since) are kept as segments, so the
/// common whole-mask access stays O(1).
class RegTracker {
 public:
  /// Records a read by op `idx` of `mask` planes; calls `raw(writer)` once
  /// per distinct last-writer op covering any of the planes.
  template <typename RawFn>
  void read(u32 idx, const PlaneMask& mask, RawFn&& raw) {
    PlaneMask rest = mask;
    const usize n = segs_.size();
    for (usize s = 0; s < n && !rest.empty(); ++s) {
      const PlaneMask inter = segs_[s].mask & rest;
      if (inter.empty()) continue;
      rest &= ~inter;
      if (segs_[s].writer >= 0) raw(static_cast<u32>(segs_[s].writer));
      if (inter == segs_[s].mask) {
        note_reader(segs_[s], idx);
      } else {
        Seg split = segs_[s];
        split.mask = inter;
        note_reader(split, idx);
        segs_[s].mask &= ~inter;
        segs_.push_back(std::move(split));
      }
    }
    if (!rest.empty()) {
      // Never-written planes: remember the reader for future WAR edges.
      Seg fresh;
      fresh.mask = rest;
      fresh.readers.push_back(idx);
      segs_.push_back(std::move(fresh));
    }
  }

  /// Records a write by op `idx` of `mask` planes; calls `war(reader)` for
  /// every reader-since-last-write and `waw(writer)` per displaced writer.
  template <typename WarFn, typename WawFn>
  void write(u32 idx, const PlaneMask& mask, WarFn&& war, WawFn&& waw) {
    for (usize s = 0; s < segs_.size();) {
      const PlaneMask inter = segs_[s].mask & mask;
      if (inter.empty()) {
        ++s;
        continue;
      }
      if (segs_[s].writer >= 0) waw(static_cast<u32>(segs_[s].writer));
      for (const u32 r : segs_[s].readers) war(r);
      segs_[s].mask &= ~inter;
      if (segs_[s].mask.empty()) {
        if (s + 1 != segs_.size()) segs_[s] = std::move(segs_.back());
        segs_.pop_back();
      } else {
        ++s;
      }
    }
    Seg fresh;
    fresh.mask = mask;
    fresh.writer = static_cast<i64>(idx);
    segs_.push_back(std::move(fresh));
  }

 private:
  struct Seg {
    PlaneMask mask;
    i64 writer = -1;  // op index, -1 for never-written
    std::vector<u32> readers;  // since `writer`, ascending (dup-free)
  };

  static void note_reader(Seg& s, u32 idx) {
    if (s.readers.empty() || s.readers.back() != idx) s.readers.push_back(idx);
  }

  std::vector<Seg> segs_;
};

}  // namespace sj::map::opt
