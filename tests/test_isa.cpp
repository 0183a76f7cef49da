// Unit tests for the Table I atomic-op ISA: encode/decode roundtrips over
// the full operand space, field-level checks against the paper's control
// columns, and the energy/block classification.
#include <gtest/gtest.h>

#include <set>

#include "core/arch.h"
#include "core/isa.h"
#include "core/plane_mask.h"

namespace sj::core {
namespace {

const Dir kDirs[] = {Dir::North, Dir::South, Dir::East, Dir::West};

std::vector<AtomicOp> all_ops() {
  std::vector<AtomicOp> ops;
  for (const Dir s : kDirs) {
    for (const bool c : {false, true}) ops.push_back(AtomicOp::ps_sum(s, c));
  }
  for (const Dir d : kDirs) {
    for (const bool b : {false, true}) ops.push_back(AtomicOp::ps_send(d, b));
  }
  for (const bool b : {false, true}) ops.push_back(AtomicOp::ps_eject(b));
  for (const Dir s : kDirs) {
    for (const Dir d : kDirs) ops.push_back(AtomicOp::ps_bypass(s, d));
  }
  for (const bool b : {false, true}) ops.push_back(AtomicOp::spk_spike(b));
  for (const Dir d : kDirs) ops.push_back(AtomicOp::spk_send(d));
  for (const Dir s : kDirs) {
    for (const Dir d : kDirs) ops.push_back(AtomicOp::spk_bypass(s, d));
  }
  for (const Dir s : kDirs) {
    for (const bool h : {false, true}) ops.push_back(AtomicOp::spk_recv(s, h));
  }
  for (const Dir s : kDirs) {
    for (const Dir d : kDirs) {
      for (const bool h : {false, true}) ops.push_back(AtomicOp::spk_recv_forward(s, d, h));
    }
  }
  ops.push_back(AtomicOp::ld_wt());
  ops.push_back(AtomicOp::acc());
  return ops;
}

TEST(Isa, EncodeDecodeRoundtripAllOps) {
  for (const AtomicOp& op : all_ops()) {
    const u16 word = encode(op);
    const AtomicOp back = decode(word);
    EXPECT_EQ(back, op) << to_string(op) << " word=0x" << std::hex << word;
  }
}

TEST(Isa, EncodingsAreDistinct) {
  std::set<u16> words;
  for (const AtomicOp& op : all_ops()) words.insert(encode(op));
  EXPECT_EQ(words.size(), all_ops().size());
}

TEST(Isa, TypeFieldMatchesTableI) {
  // Table I: first two bits select the block (PS=00, spike=01, core=10).
  EXPECT_EQ(encode(AtomicOp::ps_sum(Dir::North, false)) >> 14, 0b00);
  EXPECT_EQ(encode(AtomicOp::spk_spike(false)) >> 14, 0b01);
  EXPECT_EQ(encode(AtomicOp::acc()) >> 14, 0b10);
}

TEST(Isa, PsSumFields) {
  // SUM $SRC,$CONSEC: add_en=1, consec=$CONSEC, bypass=0, in_sel=$SRC.
  const u16 w = encode(AtomicOp::ps_sum(Dir::West, true));
  EXPECT_EQ((w >> 7) & 1, 1);                       // add_en
  EXPECT_EQ((w >> 6) & 1, 1);                       // consec_add
  EXPECT_EQ((w >> 5) & 1, 0);                       // bypass
  EXPECT_EQ((w >> 3) & 0b11, static_cast<u16>(Dir::West));  // in_sel
}

TEST(Isa, PsSendFields) {
  const u16 w = encode(AtomicOp::ps_send(Dir::East, /*fromSumBuf=*/true));
  EXPECT_EQ((w >> 8) & 1, 1);  // sum_buf
  EXPECT_EQ((w >> 7) & 1, 0);  // add_en
  EXPECT_EQ(w & 0b111, static_cast<u16>(Dir::East));  // out_sel
  const u16 e = encode(AtomicOp::ps_eject(false));
  EXPECT_EQ(e & 0b111, 0b100);  // out_sel = eject-to-spiking
}

TEST(Isa, PsBypassFields) {
  const u16 w = encode(AtomicOp::ps_bypass(Dir::North, Dir::South));
  EXPECT_EQ((w >> 5) & 1, 1);  // bypass
  EXPECT_EQ((w >> 3) & 0b11, static_cast<u16>(Dir::North));
  EXPECT_EQ(w & 0b111, static_cast<u16>(Dir::South));
}

TEST(Isa, SpikeFields) {
  const u16 sp = encode(AtomicOp::spk_spike(true));
  EXPECT_EQ((sp >> 7) & 1, 1);  // spike_en
  EXPECT_EQ((sp >> 6) & 1, 1);  // sum_or_local
  const u16 snd = encode(AtomicOp::spk_send(Dir::West));
  EXPECT_EQ((snd >> 5) & 1, 1);  // inject_en
  EXPECT_EQ(snd & 0b11, static_cast<u16>(Dir::West));
  const u16 byp = encode(AtomicOp::spk_bypass(Dir::East, Dir::North));
  EXPECT_EQ((byp >> 4) & 1, 1);  // bypass
}

TEST(Isa, ReconstructedRecvBits) {
  const u16 r = encode(AtomicOp::spk_recv(Dir::South, /*hold=*/true));
  EXPECT_EQ((r >> 10) & 1, 1);  // eject (reconstructed)
  EXPECT_EQ((r >> 11) & 1, 1);  // hold (reconstructed)
  EXPECT_EQ((r >> 4) & 1, 0);   // not bypassing
  const u16 rf = encode(AtomicOp::spk_recv_forward(Dir::South, Dir::East, false));
  EXPECT_EQ((rf >> 10) & 1, 1);
  EXPECT_EQ((rf >> 4) & 1, 1);  // forwards too
}

TEST(Isa, NeuronCoreFields) {
  // LD_WT: r_weight=0 w_weight=1111; ACC: r_weight=1 acc=1111 (Table I).
  const u16 ld = encode(AtomicOp::ld_wt());
  EXPECT_EQ((ld >> 13) & 1, 0);
  EXPECT_EQ((ld >> 9) & 0b1111, 0b1111);
  EXPECT_EQ((ld >> 5) & 0b1111, 0b0000);
  const u16 acc = encode(AtomicOp::acc());
  EXPECT_EQ((acc >> 13) & 1, 1);
  EXPECT_EQ((acc >> 9) & 0b1111, 0b0000);
  EXPECT_EQ((acc >> 5) & 0b1111, 0b1111);
}

TEST(Isa, DecodeRejectsGarbage) {
  EXPECT_THROW(decode(0xFFFF), InvalidArgument);        // type=11
  EXPECT_THROW(decode(0b01 << 14), InvalidArgument);    // spike word, no action
}

TEST(Isa, BlockAndEnergyClassification) {
  EXPECT_EQ(block_of(OpCode::PsSum), Block::PsRouter);
  EXPECT_EQ(block_of(OpCode::SpkRecv), Block::SpikeRouter);
  EXPECT_EQ(block_of(OpCode::Acc), Block::NeuronCore);
  EXPECT_EQ(energy_op_of(OpCode::PsBypass), EnergyOp::PsBypass);
  EXPECT_EQ(energy_op_of(OpCode::SpkRecv), EnergyOp::SpkBypass);
  EXPECT_EQ(energy_op_of(OpCode::SpkRecvForward), EnergyOp::SpkBypass);
  EXPECT_EQ(energy_op_of(OpCode::LdWt), EnergyOp::NeuronLdWt);
}

TEST(Isa, ToStringAssembly) {
  EXPECT_EQ(to_string(AtomicOp::ps_sum(Dir::West, true)), "SUM W, 1");
  EXPECT_EQ(to_string(AtomicOp::ps_bypass(Dir::North, Dir::East)), "BYPASS N, E");
  EXPECT_EQ(to_string(AtomicOp::spk_spike(false)), "SPIKE 0");
  EXPECT_EQ(to_string(AtomicOp::acc()), "ACC");
}

// ------------------------------------------------------------ plane mask ---

TEST(PlaneMask, Basics) {
  PlaneMask m;
  EXPECT_TRUE(m.empty());
  m.set(0);
  m.set(255);
  m.set(100);
  EXPECT_EQ(m.popcount(), 3);
  EXPECT_TRUE(m.get(255));
  EXPECT_FALSE(m.get(1));
  EXPECT_THROW(m.set(256), InvalidArgument);
}

TEST(PlaneMask, SetOperations) {
  PlaneMask a, b;
  a.set(3);
  a.set(70);
  b.set(70);
  b.set(200);
  EXPECT_TRUE(a.intersects(b));
  EXPECT_EQ((a & b).popcount(), 1);
  EXPECT_EQ((a | b).popcount(), 3);
  PlaneMask c;
  c.set(5);
  EXPECT_FALSE(a.intersects(c));
}

TEST(PlaneMask, FirstNAndAll) {
  EXPECT_EQ(PlaneMask::first_n(0).popcount(), 0);
  EXPECT_EQ(PlaneMask::first_n(10).popcount(), 10);
  EXPECT_EQ(PlaneMask::first_n(256).popcount(), 256);
  EXPECT_EQ(PlaneMask::all().popcount(), 256);
  EXPECT_TRUE(PlaneMask::first_n(10).get(9));
  EXPECT_FALSE(PlaneMask::first_n(10).get(10));
  // Word-fill implementation: every n, including the word-boundary
  // straddles, must produce exactly the low-n-bit prefix.
  for (const int n : {1, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256}) {
    const PlaneMask m = PlaneMask::first_n(n);
    EXPECT_EQ(m.popcount(), n) << "n=" << n;
    EXPECT_TRUE(m.get(static_cast<u16>(n - 1))) << "n=" << n;
    if (n < 256) {
      EXPECT_FALSE(m.get(static_cast<u16>(n))) << "n=" << n;
    }
  }
}

TEST(PlaneMask, AndAssignAndComplement) {
  const PlaneMask lo = PlaneMask::first_n(70);
  PlaneMask m = PlaneMask::all();
  m &= lo;
  EXPECT_EQ(m, lo);
  EXPECT_EQ((~lo).popcount(), 256 - 70);
  EXPECT_TRUE((lo & ~lo).empty());
  EXPECT_EQ((lo | ~lo), PlaneMask::all());
  m &= ~lo;
  EXPECT_TRUE(m.empty());
}

TEST(PlaneMask, ForEachOrdered) {
  PlaneMask m;
  m.set(250);
  m.set(1);
  m.set(64);
  std::vector<u16> got;
  m.for_each([&](u16 p) { got.push_back(p); });
  EXPECT_EQ(got, (std::vector<u16>{1, 64, 250}));
}

// ----------------------------------------------------------------- arch ----

TEST(Arch, PaperDefaultsValid) {
  const ArchParams a = ArchParams::paper();
  EXPECT_NO_THROW(a.validate());
  EXPECT_EQ(a.core_axons, 256);
  EXPECT_EQ(a.core_neurons, 256);
  EXPECT_EQ(a.chip_capacity(), 784);
  EXPECT_EQ(a.acc_cycles, 131);
  EXPECT_EQ(a.weight_bits, 5);
  EXPECT_EQ(a.noc_bits, 16);
}

TEST(Arch, ValidateRejectsBadConfigs) {
  ArchParams a = ArchParams::paper();
  a.noc_bits = 10;  // narrower than local PS
  EXPECT_THROW(a.validate(), InvalidArgument);
  a = ArchParams::paper();
  a.core_axons = 0;
  EXPECT_THROW(a.validate(), InvalidArgument);
  a = ArchParams::paper();
  a.weight_bits = 1;
  EXPECT_THROW(a.validate(), InvalidArgument);
  // Router PS registers are i16, and potentials sit in i32 lanes with room
  // for a threshold subtraction (30 bits).
  a = ArchParams::paper();
  a.noc_bits = 17;
  EXPECT_THROW(a.validate(), InvalidArgument);
  a = ArchParams::paper();
  a.potential_bits = 31;
  EXPECT_THROW(a.validate(), InvalidArgument);
  a = ArchParams::paper();
  a.local_ps_bits = 15;
  a.noc_bits = 16;
  a.potential_bits = 30;
  EXPECT_NO_THROW(a.validate());
}

}  // namespace
}  // namespace sj::core
