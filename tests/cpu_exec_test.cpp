// End-to-end executor tests: assemble small programs and run them on the
// System harness, across all three encodings where the program permits.
#include <gtest/gtest.h>

#include "cpu/profiles.h"
#include "cpu/system.h"
#include "isa/assembler.h"
#include "isa/disasm.h"

namespace aces::cpu {
namespace {

using isa::Assembler;
using isa::Cond;
using isa::Encoding;
using isa::Image;
using isa::Instruction;
using isa::Label;
using isa::Op;
using isa::SetFlags;
using namespace isa;  // registers r0..

SystemBuilder basic_config(Encoding e) {
  return profiles::for_encoding(e).flash_size(64 * 1024);
}

// Assembles, loads and runs `build(a)`; returns r0.
std::uint32_t run_program(
    Encoding e, const std::function<void(Assembler&)>& build,
    std::initializer_list<std::uint32_t> args = {}) {
  Assembler a(e, kFlashBase);
  build(a);
  const Image image = a.assemble();
  System sys(basic_config(e));
  sys.load(image);
  return sys.call(image.base, args);
}

class ExecAllEncodings : public ::testing::TestWithParam<Encoding> {};

TEST_P(ExecAllEncodings, ArithmeticChain) {
  // r0 = (((7 + 5) - 3) * 2) ^ 1 = 19
  const auto r = run_program(GetParam(), [](Assembler& a) {
    a.ins(ins_mov_imm(r0, 7, SetFlags::any));
    a.ins(ins_rri(Op::add, r0, r0, 5, SetFlags::any));
    a.ins(ins_rri(Op::sub, r0, r0, 3, SetFlags::any));
    a.ins(ins_mov_imm(r1, 2, SetFlags::any));
    a.ins(ins_rrr(Op::mul, r0, r0, r1, SetFlags::any));
    a.ins(ins_mov_imm(r2, 1, SetFlags::any));
    a.ins(ins_rrr(Op::eor, r0, r0, r2, SetFlags::any));
    a.ins(ins_ret());
  });
  EXPECT_EQ(r, 19u);
}

TEST_P(ExecAllEncodings, SumLoop) {
  // r0 = sum(1..r0) via loop with flags + conditional branch.
  const auto build = [](Assembler& a) {
    a.ins(ins_mov_reg(r1, r0, SetFlags::any));
    a.ins(ins_mov_imm(r0, 0, SetFlags::any));
    const Label top = a.bound_label();
    a.ins(ins_rrr(Op::add, r0, r0, r1, SetFlags::any));
    a.ins(ins_rri(Op::sub, r1, r1, 1, SetFlags::yes));
    a.b(top, Cond::ne);
    a.ins(ins_ret());
  };
  EXPECT_EQ(run_program(GetParam(), build, {10}), 55u);
  EXPECT_EQ(run_program(GetParam(), build, {100}), 5050u);
}

TEST_P(ExecAllEncodings, MemoryRoundTrip) {
  // Store a word, bytes, halfword into SRAM and reassemble them.
  const auto r = run_program(GetParam(), [](Assembler& a) {
    a.load_literal(r4, kSramBase + 0x100);
    a.ins(ins_mov_imm(r0, 0xAB, SetFlags::any));
    a.ins(ins_ldst_imm(Op::strb, r0, r4, 0));
    a.ins(ins_mov_imm(r1, 0xCD, SetFlags::any));
    a.ins(ins_ldst_imm(Op::strb, r1, r4, 1));
    a.ins(ins_ldst_imm(Op::ldrh, r0, r4, 0));  // 0xCDAB
    a.ins(ins_ret());
  });
  EXPECT_EQ(r, 0xCDABu);
}

TEST_P(ExecAllEncodings, SignedLoads) {
  const auto r = run_program(GetParam(), [](Assembler& a) {
    a.load_literal(r4, kSramBase + 0x40);
    a.ins(ins_mov_imm(r0, 0x80, SetFlags::any));  // -128 as a byte
    a.ins(ins_ldst_imm(Op::strb, r0, r4, 0));
    a.ins(ins_mov_imm(r5, 0, SetFlags::any));
    a.ins(ins_ldst_reg(Op::ldrsb, r1, r4, r5));
    // r1 = 0xFFFFFF80; r0 = r1 + 129 = 1
    a.ins(ins_mov_imm(r2, 129, SetFlags::any));
    a.ins(ins_rrr(Op::add, r0, r1, r2, SetFlags::any));
    a.ins(ins_ret());
  });
  EXPECT_EQ(r, 1u);
}

TEST_P(ExecAllEncodings, FunctionCall) {
  const auto r = run_program(GetParam(), [](Assembler& a) {
    const Label fn = a.new_label();
    a.ins(ins_push(1u << lr));
    a.ins(ins_mov_imm(r0, 20, SetFlags::any));
    a.bl(fn);
    a.ins(ins_rri(Op::add, r0, r0, 1, SetFlags::any));
    a.ins(ins_pop(1u << pc));
    a.bind(fn);  // r0 += 100
    a.ins(ins_mov_imm(r1, 100, SetFlags::any));
    a.ins(ins_rrr(Op::add, r0, r0, r1, SetFlags::any));
    a.ins(ins_ret());
  });
  EXPECT_EQ(r, 121u);
}

TEST_P(ExecAllEncodings, PushPopPreservesRegisters) {
  const auto r = run_program(GetParam(), [](Assembler& a) {
    a.ins(ins_mov_imm(r4, 44, SetFlags::any));
    a.ins(ins_mov_imm(r5, 55, SetFlags::any));
    a.ins(ins_push((1u << r4) | (1u << r5)));
    a.ins(ins_mov_imm(r4, 0, SetFlags::any));
    a.ins(ins_mov_imm(r5, 0, SetFlags::any));
    a.ins(ins_pop((1u << r4) | (1u << r5)));
    a.ins(ins_rrr(Op::add, r0, r4, r5, SetFlags::any));
    a.ins(ins_ret());
  });
  EXPECT_EQ(r, 99u);
}

TEST_P(ExecAllEncodings, LdmStmBlockCopy) {
  const auto r = run_program(GetParam(), [](Assembler& a) {
    a.load_literal(r0, kSramBase);
    // Fill r1..r3 and store-multiple with writeback.
    a.ins(ins_mov_imm(r1, 11, SetFlags::any));
    a.ins(ins_mov_imm(r2, 22, SetFlags::any));
    a.ins(ins_mov_imm(r3, 33, SetFlags::any));
    Instruction stm;
    stm.op = Op::stm;
    stm.rn = r0;
    stm.reglist = 0b1110;  // r1-r3
    stm.writeback = true;
    a.ins(stm);
    // r0 advanced by 12; reload from base with ldm.
    a.load_literal(r4, kSramBase);
    Instruction ldm;
    ldm.op = Op::ldm;
    ldm.rn = r4;
    ldm.reglist = 0b11100000;  // r5-r7
    ldm.writeback = true;
    a.ins(ldm);
    // r0 = (r0 - base) + r5 + r6 + r7 = 12 + 66 = 78
    a.load_literal(r1, kSramBase);
    a.ins(ins_rrr(Op::sub, r0, r0, r1, SetFlags::any));
    a.ins(ins_rrr(Op::add, r0, r0, r5, SetFlags::any));
    a.ins(ins_rrr(Op::add, r0, r0, r6, SetFlags::any));
    a.ins(ins_rrr(Op::add, r0, r0, r7, SetFlags::any));
    a.ins(ins_ret());
  });
  EXPECT_EQ(r, 78u);
}

TEST_P(ExecAllEncodings, ShiftSemantics) {
  const auto build = [](std::int64_t amount, Op op) {
    return [amount, op](Assembler& a) {
      a.ins(ins_rri(op, r0, r0, amount, SetFlags::any));
      a.ins(ins_ret());
    };
  };
  EXPECT_EQ(run_program(GetParam(), build(4, Op::lsl), {0x1001}), 0x10010u);
  EXPECT_EQ(run_program(GetParam(), build(8, Op::lsr), {0xFF00FF00}),
            0x00FF00FFu);
  EXPECT_EQ(run_program(GetParam(), build(31, Op::asr), {0x80000000}),
            0xFFFFFFFFu);

  // Register amounts (bottom byte of rm) with the flag-setting form, on
  // v = 0x80000001 and both carry-ins. Expected (result, C) pairs are
  // Shift_C from the ARM ARM: amount 0 passes value and carry through;
  // lsl/lsr past 32 clear both; asr past 31 sign-fills with C = bit 31;
  // ror by a multiple of 32 keeps the value with C = bit 31.
  struct Case {
    Op op;
    std::uint32_t amount;
    std::uint32_t result;
    int carry;  // -1: the carry-in passes through
  };
  const Case cases[] = {
      {Op::lsl, 0, 0x80000001u, -1}, {Op::lsl, 1, 0x00000002u, 1},
      {Op::lsl, 31, 0x80000000u, 0}, {Op::lsl, 32, 0x00000000u, 1},
      {Op::lsl, 33, 0x00000000u, 0}, {Op::lsl, 255, 0x00000000u, 0},
      {Op::lsr, 0, 0x80000001u, -1}, {Op::lsr, 1, 0x40000000u, 1},
      {Op::lsr, 31, 0x00000001u, 0}, {Op::lsr, 32, 0x00000000u, 1},
      {Op::lsr, 33, 0x00000000u, 0}, {Op::lsr, 255, 0x00000000u, 0},
      {Op::asr, 0, 0x80000001u, -1}, {Op::asr, 1, 0xC0000000u, 1},
      {Op::asr, 31, 0xFFFFFFFFu, 0}, {Op::asr, 32, 0xFFFFFFFFu, 1},
      {Op::asr, 33, 0xFFFFFFFFu, 1}, {Op::asr, 255, 0xFFFFFFFFu, 1},
      {Op::ror, 0, 0x80000001u, -1}, {Op::ror, 1, 0xC0000000u, 1},
      {Op::ror, 31, 0x00000003u, 0}, {Op::ror, 32, 0x80000001u, 1},
      {Op::ror, 33, 0xC0000000u, 1}, {Op::ror, 255, 0x00000003u, 0},
  };
  // r2 = carry-in: cmp r2, #1 leaves C = (r2 >= 1). Then r0 = r0 <op> r1.
  // 1-cycle flash keeps the fetch cost state-free, so the superblock tier
  // chains the shift into a block rather than falling back per-insn.
  for (const DispatchTier tier :
       {DispatchTier::per_insn, DispatchTier::superblock}) {
    for (const Case& c : cases) {
      for (const std::uint32_t carry_in : {0u, 1u}) {
        Assembler a(GetParam(), kFlashBase);
        a.ins(ins_cmp_imm(r2, 1));
        a.ins(ins_rrr(c.op, r0, r0, r1, SetFlags::yes));
        a.ins(ins_ret());
        const Image image = a.assemble();
        System sys(
            basic_config(GetParam()).flash_wait(1).dispatch_tier(tier));
        sys.load(image);
        const std::uint32_t r =
            sys.call(image.base, {0x80000001u, c.amount, carry_in});
        const bool want_c = c.carry < 0 ? carry_in != 0 : c.carry != 0;
        SCOPED_TRACE(::testing::Message()
                     << isa::op_name(c.op) << " #" << c.amount
                     << " carry-in " << carry_in << " tier "
                     << static_cast<int>(tier));
        EXPECT_EQ(r, c.result);
        EXPECT_EQ(sys.core().flags().c, want_c);
        if (tier == DispatchTier::superblock) {
          EXPECT_GT(sys.core().jit_stats().block_instructions, 0u);
        }
      }
    }
  }
}

TEST_P(ExecAllEncodings, CarryChainAdd64) {
  // 64-bit add via adds/adc: (0xFFFFFFFF + 1) -> carry into high word.
  const auto r = run_program(GetParam(), [](Assembler& a) {
    a.load_literal(r0, 0xFFFFFFFF);
    a.ins(ins_mov_imm(r1, 0, SetFlags::any));   // high word a
    a.ins(ins_mov_imm(r2, 1, SetFlags::any));   // low word b
    a.ins(ins_mov_imm(r3, 0, SetFlags::any));   // high word b
    a.ins(ins_rrr(Op::add, r0, r0, r2, SetFlags::yes));
    a.ins(ins_rrr(Op::adc, r1, r1, r3, SetFlags::any));
    a.ins(ins_mov_reg(r0, r1, SetFlags::any));
    a.ins(ins_ret());
  });
  EXPECT_EQ(r, 1u);
}

TEST_P(ExecAllEncodings, ConditionalMax) {
  // r0 = max(r0, r1) using cmp + conditional move-ish control flow.
  const auto build = [](Assembler& a) {
    const Label done = a.new_label();
    a.ins(ins_cmp_reg(r0, r1));
    a.b(done, Cond::ge);
    a.ins(ins_mov_reg(r0, r1, SetFlags::any));
    a.bind(done);
    a.ins(ins_ret());
  };
  EXPECT_EQ(run_program(GetParam(), build, {3, 9}), 9u);
  EXPECT_EQ(run_program(GetParam(), build, {9, 3}), 9u);
  EXPECT_EQ(
      run_program(GetParam(), build,
                  {static_cast<std::uint32_t>(-5), 2}),
      2u);
}

TEST_P(ExecAllEncodings, LiteralPoolLoads) {
  const auto r = run_program(GetParam(), [](Assembler& a) {
    a.load_literal(r0, 0x12345678);
    a.load_literal(r1, 0x9ABCDEF0);
    a.ins(ins_rrr(Op::eor, r0, r0, r1, SetFlags::any));
    a.ins(ins_ret());
  });
  EXPECT_EQ(r, 0x12345678u ^ 0x9ABCDEF0u);
}

TEST_P(ExecAllEncodings, CpsTogglesInterruptEnable) {
  Assembler a(GetParam(), kFlashBase);
  Instruction cpsid;
  cpsid.op = Op::cps;
  cpsid.uses_imm = true;
  cpsid.imm = 1;
  a.ins(cpsid);
  a.ins(ins_ret());
  const Image image = a.assemble();
  System sys(basic_config(GetParam()));
  sys.load(image);
  sys.core().reset(image.base, sys.initial_sp());
  EXPECT_TRUE(sys.core().interrupts_enabled());
  (void)sys.core().run(100);
  EXPECT_FALSE(sys.core().interrupts_enabled());
}

TEST_P(ExecAllEncodings, UnmappedLoadFaults) {
  Assembler a(GetParam(), kFlashBase);
  a.load_literal(r1, 0x7000'0000);  // no device there
  a.ins(ins_ldst_imm(Op::ldr, r0, r1, 0));
  a.ins(ins_ret());
  const Image image = a.assemble();
  System sys(basic_config(GetParam()));
  sys.load(image);
  sys.core().reset(image.base, sys.initial_sp());
  EXPECT_EQ(sys.core().run(100), HaltReason::fault);
  EXPECT_EQ(sys.core().fault_info().kind, mem::Fault::unmapped);
  EXPECT_EQ(sys.core().fault_info().address, 0x7000'0000u);
}

TEST_P(ExecAllEncodings, FaultHandlerCatches) {
  Assembler a(GetParam(), kFlashBase);
  const Label handler = a.new_label();
  a.load_literal(r1, 0x7000'0000);
  a.ins(ins_ldst_imm(Op::ldr, r0, r1, 0));
  a.ins(ins_mov_imm(r0, 1, SetFlags::any));  // skipped
  a.ins(ins_ret());
  a.bind(handler);
  a.ins(ins_mov_imm(r0, 42, SetFlags::any));
  a.ins(ins_ret());
  const Image image = a.assemble();
  System sys(basic_config(GetParam()));
  sys.load(image);
  sys.core().set_fault_handler(a.label_address(handler));
  EXPECT_EQ(sys.call(image.base), 42u);
}

TEST_P(ExecAllEncodings, BkptHalts) {
  Assembler a(GetParam(), kFlashBase);
  Instruction bkpt;
  bkpt.op = Op::bkpt;
  bkpt.uses_imm = true;
  bkpt.imm = 7;
  a.ins(bkpt);
  const Image image = a.assemble();
  System sys(basic_config(GetParam()));
  sys.load(image);
  sys.core().reset(image.base, sys.initial_sp());
  EXPECT_EQ(sys.core().run(10), HaltReason::breakpoint);
}

TEST_P(ExecAllEncodings, CyclesAdvanceMonotonically) {
  Assembler a(GetParam(), kFlashBase);
  for (int k = 0; k < 20; ++k) {
    a.ins(ins_rri(Op::add, r0, r0, 1, SetFlags::any));
  }
  a.ins(ins_ret());
  const Image image = a.assemble();
  System sys(basic_config(GetParam()));
  sys.load(image);
  sys.core().reset(image.base, sys.initial_sp());
  std::uint64_t last = 0;
  while (sys.core().step()) {
    EXPECT_GT(sys.core().cycles(), last);
    last = sys.core().cycles();
  }
  EXPECT_EQ(sys.core().reg(r0), 20u);
  EXPECT_GE(sys.core().cycles(), 21u);
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, ExecAllEncodings,
                         ::testing::Values(Encoding::w32, Encoding::n16,
                                           Encoding::b32),
                         [](const auto& info) {
                           return std::string(encoding_name(info.param));
                         });

// ----- encoding-specific execution ---------------------------------------------

TEST(ExecW32, PredicatedExecutionSkips) {
  Assembler a(Encoding::w32, kFlashBase);
  a.ins(ins_cmp_imm(r0, 5));
  Instruction addlt = ins_rri(Op::add, r1, r1, 100);
  addlt.cond = Cond::lt;
  a.ins(addlt);
  Instruction addge = ins_rri(Op::add, r1, r1, 1);
  addge.cond = Cond::ge;
  a.ins(addge);
  a.ins(ins_mov_reg(r0, r1));
  a.ins(ins_ret());
  const Image image = a.assemble();
  System sys(basic_config(Encoding::w32));
  sys.load(image);
  EXPECT_EQ(sys.call(image.base, {3}), 100u);   // lt path
  EXPECT_EQ(sys.call(image.base, {7}), 1u);     // ge path
  EXPECT_GE(sys.core().stats().predicated_skips, 1u);
}

TEST(ExecB32, ItBlockPredication) {
  // if (r0 >= r1) r2 = 1 else r2 = 2; plus a then-slot add.
  Assembler a(Encoding::b32, kFlashBase);
  a.ins(ins_cmp_reg(r0, r1));
  a.ins(ins_it(Cond::ge, "e"));              // ite ge
  a.ins(ins_mov_imm(r2, 1, SetFlags::any));  // ge
  a.ins(ins_mov_imm(r2, 2, SetFlags::any));  // lt
  a.ins(ins_mov_reg(r0, r2, SetFlags::any));
  a.ins(ins_ret());
  const Image image = a.assemble();
  System sys(basic_config(Encoding::b32));
  sys.load(image);
  EXPECT_EQ(sys.call(image.base, {5, 3}), 1u);
  EXPECT_EQ(sys.call(image.base, {2, 3}), 2u);
}

TEST(ExecB32, ItBlockSuppressesFlagWrites) {
  // Inside an IT block a 16-bit ALU op must not clobber flags: the second
  // slot still sees the original comparison.
  Assembler a(Encoding::b32, kFlashBase);
  a.ins(ins_cmp_imm(r0, 10));            // r0=0 -> lt
  a.ins(ins_it(Cond::lt, "t"));
  a.ins(ins_rri(Op::add, r1, r1, 200, SetFlags::any));  // would set flags
  a.ins(ins_rri(Op::add, r1, r1, 1, SetFlags::any));    // also lt slot
  a.ins(ins_mov_reg(r0, r1, SetFlags::any));
  a.ins(ins_ret());
  const Image image = a.assemble();
  System sys(basic_config(Encoding::b32));
  sys.load(image);
  EXPECT_EQ(sys.call(image.base, {0, 0}), 201u);
}

TEST(ExecB32, HardwareDivide) {
  Assembler a(Encoding::b32, kFlashBase);
  a.ins(ins_rrr(Op::sdiv, r0, r0, r1));
  a.ins(ins_ret());
  const Image image = a.assemble();
  System sys(basic_config(Encoding::b32));
  sys.load(image);
  EXPECT_EQ(sys.call(image.base, {100, 7}), 14u);
  EXPECT_EQ(sys.call(image.base,
                     {static_cast<std::uint32_t>(-100), 7}),
            static_cast<std::uint32_t>(-14));
  EXPECT_EQ(sys.call(image.base, {100, 0}), 0u);  // ARM divide-by-zero
}

TEST(ExecB32, BitfieldOps) {
  Assembler a(Encoding::b32, kFlashBase);
  // ubfx r0, r0, #8, #8 then bfi r0, r1, #16, #4
  Instruction ubfx = ins_rrr(Op::ubfx, r0, r0, 0);
  ubfx.imm = 8;
  ubfx.width = 8;
  a.ins(ubfx);
  Instruction bfi = ins_rrr(Op::bfi, r0, r1, 0);
  bfi.imm = 16;
  bfi.width = 4;
  a.ins(bfi);
  a.ins(ins_ret());
  const Image image = a.assemble();
  System sys(basic_config(Encoding::b32));
  sys.load(image);
  EXPECT_EQ(sys.call(image.base, {0x00CD1200, 0x5}), 0x50012u);
}

TEST(ExecB32, MovwMovtBuildsConstant) {
  Assembler a(Encoding::b32, kFlashBase);
  Instruction movw;
  movw.op = Op::movw;
  movw.rd = r0;
  movw.uses_imm = true;
  movw.imm = 0x5678;
  a.ins(movw);
  Instruction movt = movw;
  movt.op = Op::movt;
  movt.imm = 0x1234;
  a.ins(movt);
  a.ins(ins_ret());
  const Image image = a.assemble();
  System sys(basic_config(Encoding::b32));
  sys.load(image);
  EXPECT_EQ(sys.call(image.base), 0x12345678u);
}

TEST(ExecB32, CbzAndTableBranch) {
  // switch (r0) { 0: 10; 1: 20; 2: 30 } using tbb; cbz guards r1==0 path.
  Assembler a(Encoding::b32, kFlashBase);
  const Label t0 = a.new_label(), t1 = a.new_label(), t2 = a.new_label();
  const Label table = a.new_label();
  a.adr(r2, table);
  const Label site = a.bound_label();
  Instruction tbb;
  tbb.op = Op::tbb;
  tbb.rn = r2;
  tbb.rm = r0;
  a.ins(tbb);
  a.bind(table);
  a.jump_table(site, {t0, t1, t2});
  a.align(2);
  a.bind(t0);
  a.ins(ins_mov_imm(r0, 10, SetFlags::any));
  a.ins(ins_ret());
  a.bind(t1);
  a.ins(ins_mov_imm(r0, 20, SetFlags::any));
  a.ins(ins_ret());
  a.bind(t2);
  a.ins(ins_mov_imm(r0, 30, SetFlags::any));
  a.ins(ins_ret());
  const Image image = a.assemble();
  System sys(basic_config(Encoding::b32));
  sys.load(image);
  EXPECT_EQ(sys.call(image.base, {0}), 10u);
  EXPECT_EQ(sys.call(image.base, {1}), 20u);
  EXPECT_EQ(sys.call(image.base, {2}), 30u);
}

TEST(ExecB32, RbitRevClz) {
  Assembler a(Encoding::b32, kFlashBase);
  Instruction rbit;
  rbit.op = Op::rbit;
  rbit.rd = r1;
  rbit.rm = r0;
  a.ins(rbit);
  Instruction clz;
  clz.op = Op::clz;
  clz.rd = r0;
  clz.rm = r1;
  a.ins(clz);
  a.ins(ins_ret());
  const Image image = a.assemble();
  System sys(basic_config(Encoding::b32));
  sys.load(image);
  // rbit(0x00000001) = 0x80000000 -> clz = 0
  EXPECT_EQ(sys.call(image.base, {1}), 0u);
  // rbit(0x80000000) = 1 -> clz = 31
  EXPECT_EQ(sys.call(image.base, {0x80000000u}), 31u);
}

// ----- MPU integration -----------------------------------------------------------

TEST(ExecMpu, UnprivilegedStoreBlocked) {
  Assembler a(Encoding::b32, kFlashBase);
  a.load_literal(r1, kSramBase + 0x800);
  a.ins(ins_ldst_imm(Op::str, r0, r1, 0));
  a.ins(ins_mov_imm(r0, 1, SetFlags::any));
  a.ins(ins_ret());
  const Image image = a.assemble();

  SystemBuilder cfg = basic_config(Encoding::b32).privileged(false);
  System sys(cfg);
  sys.load(image);

  mem::Mpu mpu(mem::MpuConfig::fine());
  // Unprivileged code may execute flash and use the stack region, but the
  // region at kSramBase+0x800 is not granted.
  mem::MpuRegion code;
  code.base = kFlashBase;
  code.size = 64 * 1024;
  code.read = true;
  code.execute = true;
  mpu.set_region(0, code);
  mem::MpuRegion stack;
  stack.base = kSramBase + 0xC000;
  stack.size = 0x4000;
  stack.read = true;
  stack.write = true;
  mpu.set_region(1, stack);
  sys.core().set_mpu(&mpu);

  sys.core().reset(image.base, sys.initial_sp());
  EXPECT_EQ(sys.core().run(100), HaltReason::fault);
  EXPECT_EQ(sys.core().fault_info().kind, mem::Fault::mpu_violation);

  // Grant the region and the same program succeeds.
  mem::MpuRegion data;
  data.base = kSramBase + 0x800;
  data.size = 32;
  data.read = true;
  data.write = true;
  mpu.set_region(2, data);
  sys.core().reset(image.base, sys.initial_sp());
  EXPECT_EQ(sys.core().run(100), HaltReason::exited);
}

}  // namespace
}  // namespace aces::cpu
