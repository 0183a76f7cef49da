#include "core/isa.h"

#include "common/status.h"
#include "common/string_util.h"

namespace sj::core {

const char* opcode_name(OpCode code) {
  switch (code) {
    case OpCode::PsSum: return "PS.SUM";
    case OpCode::PsSend: return "PS.SEND";
    case OpCode::PsBypass: return "PS.BYPASS";
    case OpCode::SpkSpike: return "SPK.SPIKE";
    case OpCode::SpkSend: return "SPK.SEND";
    case OpCode::SpkBypass: return "SPK.BYPASS";
    case OpCode::SpkRecv: return "SPK.RECV";
    case OpCode::SpkRecvForward: return "SPK.RECVFWD";
    case OpCode::LdWt: return "CORE.LD_WT";
    case OpCode::Acc: return "CORE.ACC";
  }
  return "?";
}

Block block_of(OpCode code) {
  switch (code) {
    case OpCode::PsSum:
    case OpCode::PsSend:
    case OpCode::PsBypass: return Block::PsRouter;
    case OpCode::SpkSpike:
    case OpCode::SpkSend:
    case OpCode::SpkBypass:
    case OpCode::SpkRecv:
    case OpCode::SpkRecvForward: return Block::SpikeRouter;
    case OpCode::LdWt:
    case OpCode::Acc: return Block::NeuronCore;
  }
  return Block::NeuronCore;
}

EnergyOp energy_op_of(OpCode code) {
  switch (code) {
    case OpCode::PsSum: return EnergyOp::PsSum;
    case OpCode::PsSend: return EnergyOp::PsSend;
    case OpCode::PsBypass: return EnergyOp::PsBypass;
    case OpCode::SpkSpike: return EnergyOp::SpkSpike;
    case OpCode::SpkSend: return EnergyOp::SpkSend;
    // The ejection ops exercise the same crossbar path as a bypass; charge
    // them at the BYPASS rate (documented reconstruction).
    case OpCode::SpkBypass:
    case OpCode::SpkRecv:
    case OpCode::SpkRecvForward: return EnergyOp::SpkBypass;
    case OpCode::Acc: return EnergyOp::NeuronAcc;
    case OpCode::LdWt: return EnergyOp::NeuronLdWt;
  }
  return EnergyOp::NeuronAcc;
}

AtomicOp AtomicOp::ps_sum(Dir srcp, bool consecutive) {
  AtomicOp op;
  op.code = OpCode::PsSum;
  op.src = srcp;
  op.consec = consecutive;
  return op;
}

AtomicOp AtomicOp::ps_send(Dir dstp, bool fromSumBuf) {
  AtomicOp op;
  op.code = OpCode::PsSend;
  op.dst = dstp;
  op.from_sum_buf = fromSumBuf;
  return op;
}

AtomicOp AtomicOp::ps_eject(bool fromSumBuf) {
  AtomicOp op;
  op.code = OpCode::PsSend;
  op.eject = true;
  op.from_sum_buf = fromSumBuf;
  return op;
}

AtomicOp AtomicOp::ps_bypass(Dir srcp, Dir dstp) {
  AtomicOp op;
  op.code = OpCode::PsBypass;
  op.src = srcp;
  op.dst = dstp;
  return op;
}

AtomicOp AtomicOp::spk_spike(bool sumOrLocal) {
  AtomicOp op;
  op.code = OpCode::SpkSpike;
  op.sum_or_local = sumOrLocal;
  return op;
}

AtomicOp AtomicOp::spk_send(Dir dstp) {
  AtomicOp op;
  op.code = OpCode::SpkSend;
  op.dst = dstp;
  return op;
}

AtomicOp AtomicOp::spk_bypass(Dir srcp, Dir dstp) {
  AtomicOp op;
  op.code = OpCode::SpkBypass;
  op.src = srcp;
  op.dst = dstp;
  return op;
}

AtomicOp AtomicOp::spk_recv(Dir srcp, bool holdOne) {
  AtomicOp op;
  op.code = OpCode::SpkRecv;
  op.src = srcp;
  op.hold = holdOne;
  return op;
}

AtomicOp AtomicOp::spk_recv_forward(Dir srcp, Dir dstp, bool holdOne) {
  AtomicOp op;
  op.code = OpCode::SpkRecvForward;
  op.src = srcp;
  op.dst = dstp;
  op.hold = holdOne;
  return op;
}

AtomicOp AtomicOp::ld_wt() {
  AtomicOp op;
  op.code = OpCode::LdWt;
  return op;
}

AtomicOp AtomicOp::acc() {
  AtomicOp op;
  op.code = OpCode::Acc;
  return op;
}

namespace {

// Bit positions. All words are 16 bits with the Table I type field in the
// two most significant bits (PS=00, spike=01, neuron core=10), followed by
// Table I's columns:
// PS router:    [15:14]=00 [8]=sum_buf [7]=add_en [6]=consec_add [5]=bypass
//               [4:3]=in_sel [2:0]=out_sel
// Spike router: [15:14]=01 [11]=hold(recon.) [10]=eject(recon.) [7]=spike_en
//               [6]=sum_or_local [5]=inject_en [4]=bypass [3:2]=in_sel
//               [1:0]=out_sel
// Neuron core:  [15:14]=10 [13]=r_weight [12:9]=w_weight [8:5]=acc [4:0]=pad
constexpr u16 kPsEjectOutSel = 0b100;

u16 dbits(Dir d) { return static_cast<u16>(d); }
Dir bdir(u16 b) {
  SJ_REQUIRE(b < 4, "decode: bad direction bits");
  return static_cast<Dir>(b);
}

}  // namespace

u16 encode(const AtomicOp& op) {
  switch (op.code) {
    case OpCode::PsSum:
      return static_cast<u16>((0b00u << 14) | (0u << 8) | (1u << 7) |
                              ((op.consec ? 1u : 0u) << 6) | (0u << 5) |
                              (dbits(op.src) << 3) | 0b000u);
    case OpCode::PsSend:
      return static_cast<u16>((0b00u << 14) | ((op.from_sum_buf ? 1u : 0u) << 8) |
                              (0u << 7) | (0u << 6) | (0u << 5) | (0u << 3) |
                              (op.eject ? kPsEjectOutSel : dbits(op.dst)));
    case OpCode::PsBypass:
      return static_cast<u16>((0b00u << 14) | (0u << 8) | (0u << 7) | (0u << 6) |
                              (1u << 5) | (dbits(op.src) << 3) | dbits(op.dst));
    case OpCode::SpkSpike:
      return static_cast<u16>((0b01u << 14) | (1u << 7) |
                              ((op.sum_or_local ? 1u : 0u) << 6));
    case OpCode::SpkSend:
      return static_cast<u16>((0b01u << 14) | (1u << 5) | dbits(op.dst));
    case OpCode::SpkBypass:
      return static_cast<u16>((0b01u << 14) | (1u << 4) | (dbits(op.src) << 2) |
                              dbits(op.dst));
    case OpCode::SpkRecv:
      return static_cast<u16>(((op.hold ? 1u : 0u) << 11) | (1u << 10) | (0b01u << 14) |
                              (dbits(op.src) << 2));
    case OpCode::SpkRecvForward:
      return static_cast<u16>(((op.hold ? 1u : 0u) << 11) | (1u << 10) | (0b01u << 14) |
                              (1u << 4) | (dbits(op.src) << 2) | dbits(op.dst));
    case OpCode::LdWt:
      return static_cast<u16>((0b10u << 14) | (0u << 13) | (0b1111u << 9));
    case OpCode::Acc:
      return static_cast<u16>((0b10u << 14) | (1u << 13) | (0b1111u << 5));
  }
  SJ_THROW_INTERNAL("encode: unknown opcode");
}

AtomicOp decode(u16 word) {
  if ((word >> 14) == 0b10) {  // neuron core
    const bool r_weight = (word >> 13) & 1;
    return r_weight ? AtomicOp::acc() : AtomicOp::ld_wt();
  }
  if ((word >> 14) == 0b01) {  // spike router
    const bool hold = (word >> 11) & 1;
    const bool eject = (word >> 10) & 1;
    const bool spike_en = (word >> 7) & 1;
    const bool sum_or_local = (word >> 6) & 1;
    const bool inject_en = (word >> 5) & 1;
    const bool bypass = (word >> 4) & 1;
    const u16 in_sel = (word >> 2) & 0b11;
    const u16 out_sel = word & 0b11;
    if (spike_en) return AtomicOp::spk_spike(sum_or_local);
    if (inject_en) return AtomicOp::spk_send(bdir(out_sel));
    if (eject && bypass) return AtomicOp::spk_recv_forward(bdir(in_sel), bdir(out_sel), hold);
    if (eject) return AtomicOp::spk_recv(bdir(in_sel), hold);
    if (bypass) return AtomicOp::spk_bypass(bdir(in_sel), bdir(out_sel));
    SJ_THROW_INVALID("decode: malformed spike router word");
  }
  if ((word >> 14) == 0b00) {  // PS router
    const bool sum_buf = (word >> 8) & 1;
    const bool add_en = (word >> 7) & 1;
    const bool consec = (word >> 6) & 1;
    const bool bypass = (word >> 5) & 1;
    const u16 in_sel = (word >> 3) & 0b11;
    const u16 out_sel = word & 0b111;
    if (add_en) return AtomicOp::ps_sum(bdir(in_sel), consec);
    if (bypass) return AtomicOp::ps_bypass(bdir(in_sel), bdir(out_sel & 0b11));
    if (out_sel == kPsEjectOutSel) return AtomicOp::ps_eject(sum_buf);
    return AtomicOp::ps_send(bdir(out_sel & 0b11), sum_buf);
  }
  SJ_THROW_INVALID("decode: unknown control word");
}

std::string to_string(const AtomicOp& op) {
  switch (op.code) {
    case OpCode::PsSum:
      return strprintf("SUM %s, %d", dir_name(op.src), op.consec ? 1 : 0);
    case OpCode::PsSend:
      return strprintf("SEND %s, %s", op.from_sum_buf ? "SUMBUF" : "LOCAL",
                       op.eject ? "EJECT" : dir_name(op.dst));
    case OpCode::PsBypass:
      return strprintf("BYPASS %s, %s", dir_name(op.src), dir_name(op.dst));
    case OpCode::SpkSpike:
      return strprintf("SPIKE %d", op.sum_or_local ? 1 : 0);
    case OpCode::SpkSend: return strprintf("SEND %s", dir_name(op.dst));
    case OpCode::SpkBypass:
      return strprintf("BYPASS %s, %s", dir_name(op.src), dir_name(op.dst));
    case OpCode::SpkRecv:
      return strprintf("RECV %s%s", dir_name(op.src), op.hold ? ", HOLD" : "");
    case OpCode::SpkRecvForward:
      return strprintf("RECVFWD %s, %s%s", dir_name(op.src), dir_name(op.dst),
                       op.hold ? ", HOLD" : "");
    case OpCode::LdWt: return "LD_WT";
    case OpCode::Acc: return "ACC";
  }
  return "?";
}

bool needs_link(const AtomicOp& op) {
  switch (op.code) {
    case OpCode::PsSend:
      return !op.eject;
    case OpCode::PsBypass:
    case OpCode::SpkSend:
    case OpCode::SpkBypass:
    case OpCode::SpkRecvForward:
      return true;
    default:
      return false;
  }
}

}  // namespace sj::core
