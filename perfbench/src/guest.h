// Guest-code fragments shared by the ISS ECUs of the network workloads.
//
// Register use: r0 controller base, r1-r3/r12 scratch — all of them part
// of the 8-word frame the interrupt controller stacks, so an ISR built
// from these fragments is transparent to the interrupted main loop.
#ifndef PERFBENCH_GUEST_H
#define PERFBENCH_GUEST_H

#include <cstdint>

#include "can/controller.h"
#include "cpu/system.h"
#include "isa/assembler.h"

namespace perfbench::guest {

// Interrupt line the CAN controller raises for RX.
inline constexpr unsigned kRxLine = 1;

// ++word at `addr`; leaves the address in r3 and the new value in r2.
inline void inc_word(isa::Assembler& a, std::uint32_t addr) {
  using namespace isa;
  a.load_literal(r3, addr);
  a.ins(ins_ldst_imm(Op::ldr, r2, r3, 0));
  a.ins(ins_rri(Op::add, r2, r2, 1, SetFlags::any));
  a.ins(ins_ldst_imm(Op::str, r2, r3, 0));
}

// Retires the RX FIFO head and acknowledges the interrupt.
inline void pop_ack(isa::Assembler& a) {
  using namespace isa;
  using Ctl = can::CanController;
  a.ins(ins_mov_imm(r12, 1, SetFlags::any));
  a.ins(ins_ldst_imm(Op::str, r12, r0, Ctl::kRxPop));
  a.ins(ins_ldst_imm(Op::str, r12, r0, Ctl::kIrqAck));
}

// RX ISR: a frame `match_id` bumps the word at `count_addr`, is retired,
// and is answered with a 4-byte `reply_id` frame carrying the running count
// whenever (count & reply_mask) == 0 (mask 0: every time). Other frames are
// retired unanswered. Returns the entry label.
inline isa::Label relay_isr(isa::Assembler& a, std::uint32_t match_id,
                            std::uint32_t reply_id, std::uint32_t reply_mask,
                            std::uint32_t count_addr) {
  using namespace isa;
  using Ctl = can::CanController;
  const Label isr = a.bound_label();
  a.load_literal(r0, cpu::kPeriphBase);
  a.ins(ins_ldst_imm(Op::ldr, r1, r0, Ctl::kRxId));
  a.load_literal(r2, match_id);
  a.ins(ins_cmp_reg(r1, r2));
  const Label other = a.new_label();
  a.b(other, Cond::ne);
  inc_word(a, count_addr);
  pop_ack(a);
  const Label done = a.new_label();
  if (reply_mask != 0) {
    a.ins(ins_rri(Op::and_, r12, r2, reply_mask, SetFlags::yes));
    a.b(done, Cond::ne);
  }
  a.load_literal(r12, reply_id);
  a.ins(ins_ldst_imm(Op::str, r12, r0, Ctl::kTxId));
  a.ins(ins_mov_imm(r12, 4, SetFlags::any));
  a.ins(ins_ldst_imm(Op::str, r12, r0, Ctl::kTxDlc));
  a.ins(ins_ldst_imm(Op::str, r2, r0, Ctl::kTxData0));
  a.ins(ins_mov_imm(r12, 1, SetFlags::any));
  a.ins(ins_ldst_imm(Op::str, r12, r0, Ctl::kTxCmd));
  a.bind(done);
  a.ins(ins_ret());
  a.bind(other);
  pop_ack(a);
  a.ins(ins_ret());
  a.pool();
  return isr;
}

// WFI idle loop; returns the entry label.
inline isa::Label idle_loop(isa::Assembler& a) {
  using namespace isa;
  const Label top = a.bound_label();
  Instruction wfi;
  wfi.op = Op::wfi;
  a.ins(wfi);
  a.b(top);
  a.pool();
  return top;
}

}  // namespace perfbench::guest

#endif  // PERFBENCH_GUEST_H
