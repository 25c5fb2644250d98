// Instruction semantics: the one definition of what each data-processing
// instruction computes, shared by every dispatch tier.
//
// Core::execute() (the reference and decode-cache tiers) and the
// specialized superblock handlers (superblock.cpp) both call the Core
// members defined here; the tiers differ only in how they fetch, dispatch,
// predicate and charge cycles. Callers that pass a constant `op` get the
// helper folded down to that one operation, so a superblock handler
// compiles to the same straight-line code it would hand-written.
//
// The pure value functions in `sem` follow the ARM ARM pseudo-code.
// fuzz_test's reference interpreter deliberately does not include this
// file: it stays an independent oracle for both tiers.
//
// Internal to the cpu library: include only from the Core implementation.
#ifndef ACES_CPU_SEMANTICS_H
#define ACES_CPU_SEMANTICS_H

#include <algorithm>
#include <cstdint>

#include "cpu/core.h"
#include "isa/isa.h"
#include "support/bits.h"

namespace aces::cpu {

namespace sem {

struct Shifted {
  std::uint32_t value = 0;
  bool carry = false;
};

// Shift_C for lsl/lsr/asr/ror by `amount` (an immediate, or the bottom byte
// of a register). A zero amount passes the value and the carry through;
// amounts past 32 shift everything out (ror wraps modulo 32, and a multiple
// of 32 leaves the value with carry = bit 31).
constexpr Shifted shift_c(isa::Op op, std::uint32_t v, std::uint32_t amount,
                          bool carry_in) {
  if (amount == 0) {
    return {v, carry_in};
  }
  switch (op) {
    case isa::Op::lsl:
      if (amount > 32) {
        return {0, false};
      }
      return {amount == 32 ? 0 : v << amount, ((v >> (32 - amount)) & 1u) != 0};
    case isa::Op::lsr:
      if (amount > 32) {
        return {0, false};
      }
      return {amount == 32 ? 0 : v >> amount, ((v >> (amount - 1)) & 1u) != 0};
    case isa::Op::asr: {
      // Past 31 every bit is a copy of the sign, and so is the carry.
      const std::uint32_t a = std::min(amount, 32u);
      return {static_cast<std::uint32_t>(static_cast<std::int32_t>(v) >>
                                         std::min(a, 31u)),
              ((v >> (a - 1)) & 1u) != 0};
    }
    default: {  // ror
      const std::uint32_t r = support::rotate_right(v, amount % 32);
      return {r, (r >> 31) != 0};
    }
  }
}

// and/orr/eor/bic/mov/mvn, and the flag-only tst (and) / teq (eor).
constexpr std::uint32_t logical(isa::Op op, std::uint32_t n, std::uint32_t m) {
  switch (op) {
    case isa::Op::and_:
    case isa::Op::tst:
      return n & m;
    case isa::Op::orr:
      return n | m;
    case isa::Op::eor:
    case isa::Op::teq:
      return n ^ m;
    case isa::Op::bic:
      return n & ~m;
    case isa::Op::mvn:
      return ~m;
    default:  // mov
      return m;
  }
}

// New rd of the wide moves (movw/movt), bitfields (bfi/bfc/ubfx/sbfx),
// extends (sxtb/sxth/uxtb/uxth) and bit/byte ops (rbit/rev/rev16/clz).
// `d` is rd's old value: movt, bfi and bfc keep part of it.
constexpr std::uint32_t bit_op(isa::Op op, const isa::Instruction& i,
                               std::uint32_t d, std::uint32_t n,
                               std::uint32_t m) {
  const auto lsb = static_cast<unsigned>(i.imm);
  const std::uint32_t imm16 = static_cast<std::uint32_t>(i.imm) & 0xFFFFu;
  switch (op) {
    case isa::Op::movw:
      return imm16;
    case isa::Op::movt:
      return (d & 0xFFFFu) | (imm16 << 16);
    case isa::Op::bfi:
      return support::insert_bits(d, n, lsb, i.width);
    case isa::Op::bfc:
      return support::insert_bits(d, 0, lsb, i.width);
    case isa::Op::ubfx:
      return support::bits(n, lsb, i.width);
    case isa::Op::sbfx:
      return static_cast<std::uint32_t>(
          support::sign_extend(support::bits(n, lsb, i.width), i.width));
    case isa::Op::rbit:
      return support::reverse_bits(m);
    case isa::Op::rev:
      return support::reverse_bytes(m);
    case isa::Op::rev16:
      return support::reverse_bytes16(m);
    case isa::Op::clz:
      return support::count_leading_zeros(m);
    case isa::Op::sxtb:
      return static_cast<std::uint32_t>(support::sign_extend(m & 0xFF, 8));
    case isa::Op::sxth:
      return static_cast<std::uint32_t>(support::sign_extend(m & 0xFFFF, 16));
    case isa::Op::uxtb:
      return m & 0xFF;
    default:  // uxth
      return m & 0xFFFF;
  }
}

// Inside an IT block only the compares write flags (the Thumb-2 rule that
// lets the flag-setting 16-bit ALU forms be predicated).
constexpr bool is_compare(isa::Op op) {
  return op == isa::Op::cmp || op == isa::Op::cmn || op == isa::Op::tst ||
         op == isa::Op::teq;
}

// Target of a pc-relative branch (b, bl, cbz/cbnz) at `pc`.
constexpr std::uint32_t branch_target(std::uint32_t pc, std::int64_t imm) {
  return pc + static_cast<std::uint32_t>(static_cast<std::int32_t>(imm));
}

// adr and literal loads: align4(pc + 4) + imm.
constexpr std::uint32_t pc_relative(std::uint32_t pc, std::int64_t imm) {
  return static_cast<std::uint32_t>(support::align_down(pc + 4, 4)) +
         static_cast<std::uint32_t>(imm);
}

}  // namespace sem

// ----- Core state bindings ---------------------------------------------------

inline std::uint32_t Core::operand2(const isa::Instruction& i) const {
  return i.uses_imm ? static_cast<std::uint32_t>(i.imm) : regs_[i.rm];
}

inline void Core::exec_arith(isa::Op op, const isa::Instruction& i, bool set) {
  const std::uint32_t n = regs_[i.rn];
  const std::uint32_t m = operand2(i);
  switch (op) {
    case isa::Op::add:
      regs_[i.rd] = add_with_carry(n, m, false, set);
      break;
    case isa::Op::adc:
      regs_[i.rd] = add_with_carry(n, m, flags_.c, set);
      break;
    case isa::Op::sub:
      regs_[i.rd] = add_with_carry(n, ~m, true, set);
      break;
    case isa::Op::sbc:
      regs_[i.rd] = add_with_carry(n, ~m, flags_.c, set);
      break;
    case isa::Op::rsb:
      regs_[i.rd] = add_with_carry(~n, m, true, set);
      break;
    case isa::Op::cmp:
      (void)add_with_carry(n, ~m, true, true);
      break;
    default:  // cmn
      (void)add_with_carry(n, m, false, true);
      break;
  }
}

inline void Core::exec_logical(isa::Op op, const isa::Instruction& i,
                               bool set) {
  const std::uint32_t v = sem::logical(op, regs_[i.rn], operand2(i));
  if (op == isa::Op::tst || op == isa::Op::teq) {
    set_nz(v);
    return;
  }
  regs_[i.rd] = v;
  if (set) {
    set_nz(v);
  }
}

inline void Core::exec_shift(const isa::Instruction& i, bool set) {
  const std::uint32_t amount = i.uses_imm ? static_cast<std::uint32_t>(i.imm)
                                          : (regs_[i.rm] & 0xFF);
  const sem::Shifted r = sem::shift_c(i.op, regs_[i.rn], amount, flags_.c);
  regs_[i.rd] = r.value;
  if (set) {
    set_nz(r.value);
    flags_.c = r.carry;
  }
}

inline void Core::exec_bit_op(isa::Op op, const isa::Instruction& i) {
  regs_[i.rd] = sem::bit_op(op, i, regs_[i.rd], regs_[i.rn], regs_[i.rm]);
}

inline std::uint32_t Core::exec_mul(const isa::Instruction& i, bool set) {
  regs_[i.rd] = regs_[i.rn] * regs_[i.rm];
  if (set) {
    set_nz(regs_[i.rd]);
  }
  // Early termination reads the (possibly just-written) rm.
  return mul_cycles(regs_[i.rm]);
}

inline bool Core::cbz_taken(const isa::Instruction& i) const {
  return (regs_[i.rn] == 0) == (i.op == isa::Op::cbz);
}

inline void Core::take_branch(std::uint32_t target) {
  regs_[isa::pc] = target & ~1u;  // bit 0 is an interworking hint; ignore
  ++stats_.taken_branches;
}

inline std::uint32_t Core::address(isa::AddrMode mode,
                                   const isa::Instruction& i,
                                   std::uint32_t pc) const {
  switch (mode) {
    case isa::AddrMode::offset_imm:
      return regs_[i.rn] + static_cast<std::uint32_t>(i.imm);
    case isa::AddrMode::offset_reg:
      return regs_[i.rn] + regs_[i.rm];
    case isa::AddrMode::pc_rel:
      return sem::pc_relative(pc, i.imm);
    default:
      return 0;
  }
}

}  // namespace aces::cpu

#endif  // ACES_CPU_SEMANTICS_H
