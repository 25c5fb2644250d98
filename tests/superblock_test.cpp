// Superblock tier: formation/termination rules, every invalidation source
// (guest stores splitting a live block, FlashPatch remaps, MPU execute
// revocation), interrupt delivery instants, byte-identity against the
// uncached reference tier, and the same boundaries on default wait-stated
// flash, where blocks charge the prefetch streamer inline. The randomized
// counterpart lives in fuzz_test.cpp (three-way tier differential).
#include <gtest/gtest.h>

#include "cpu/fpb.h"
#include "cpu/ivc.h"
#include "cpu/profiles.h"
#include "cpu/system.h"
#include "isa/assembler.h"
#include "isa/codec.h"

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
using namespace isa;  // r0..r15

// 1-cycle flash: the fixed-fetch-cost regime, where every entry's fetch is
// a constant.
SystemBuilder mcu() {
  return profiles::modern_mcu().flash_size(64 * 1024).flash_wait(1);
}

// The default flash: 5 wait states behind the prefetch streamer, whose
// protocol the superblock tier runs inline per entry.
SystemBuilder streamer_mcu() {
  return profiles::modern_mcu().flash_size(64 * 1024);
}

void expect_same_flash_stats(System& got, System& want) {
  const mem::Flash::Stats& g = got.flash().stats();
  const mem::Flash::Stats& w = want.flash().stats();
  EXPECT_EQ(g.stream_hits, w.stream_hits);
  EXPECT_EQ(g.stream_next_line, w.stream_next_line);
  EXPECT_EQ(g.stream_breaks, w.stream_breaks);
  EXPECT_EQ(g.data_disruptions, w.data_disruptions);
}

std::uint16_t encode_halfword(const Instruction& insn) {
  const isa::Codec& codec = isa::b32_codec();
  const int size = codec.size_for(insn, 0);
  EXPECT_EQ(size, 2);
  std::vector<std::uint8_t> bytes;
  codec.encode(insn, 0, size, bytes);
  return static_cast<std::uint16_t>(bytes[0] | (bytes[1] << 8));
}

// ----- formation / termination ----------------------------------------------

TEST(Superblock, FormationChainsStraightLineAndStopsAtTerminator) {
  Assembler a(Encoding::b32, kFlashBase);
  a.ins(ins_mov_imm(r0, 1, SetFlags::any));
  a.ins(ins_rri(Op::add, r0, r0, 2, SetFlags::any));
  a.ins(ins_rrr(Op::eor, r1, r0, r0, SetFlags::any));
  a.ins(ins_rri(Op::sub, r0, r0, 1, SetFlags::any));
  a.ins(ins_ret());  // bx lr: terminator, included as the final entry
  const Image image = a.assemble();

  System sys(mcu());
  sys.load(image);
  EXPECT_EQ(sys.core().dispatch_tier(), DispatchTier::superblock);
  EXPECT_EQ(sys.call(image.base), 2u);

  CodeCache* sb = sys.core().code_cache();
  ASSERT_NE(sb, nullptr);
  CodeCache::Block* b = sb->block(image.base, /*privileged=*/true);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->entries.size(), 5u);
  EXPECT_EQ(b->start_pc, image.base);
  EXPECT_EQ(b->end_pc, image.base + image.bytes.size());
  // The terminator stays generic (it leaves the straight line); everything
  // before it was specialized.
  EXPECT_EQ(b->entries.back().klass, ExecClass::generic);
  for (std::size_t k = 0; k + 1 < b->entries.size(); ++k) {
    EXPECT_NE(b->entries[k].klass, ExecClass::generic) << "entry " << k;
  }
  EXPECT_GE(sb->stats().blocks_formed, 1u);
  EXPECT_GT(sb->stats().block_instructions, 0u);
}

TEST(Superblock, BackwardBranchTerminatesBlockAndLoopsInDispatch) {
  Assembler a(Encoding::b32, kFlashBase);
  a.ins(ins_mov_imm(r0, 0, SetFlags::any));
  a.ins(ins_mov_imm(r1, 1000, SetFlags::any));
  const Label top = a.bound_label();
  a.ins(ins_rri(Op::add, r0, r0, 1, SetFlags::any));
  a.ins(ins_rri(Op::sub, r1, r1, 1, SetFlags::yes));
  a.b(top, Cond::ne);
  a.ins(ins_ret());
  const Image image = a.assemble();

  System sys(mcu());
  sys.load(image);
  EXPECT_EQ(sys.call(image.base), 1000u);

  CodeCache::Block* b =
      sys.core().code_cache()->block(a.label_address(top), true);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->entries.size(), 3u);
  EXPECT_EQ(b->entries.back().klass, ExecClass::branch);
  // The taken back-branch re-enters the same block without leaving the
  // dispatcher, so block hits dwarf the 1000 iterations' worth of misses.
  EXPECT_GT(sys.core().code_cache()->stats().block_hits, 900u);
  const Core::JitStats js = sys.core().jit_stats();
  EXPECT_GT(js.block_instructions, 2900u);
  EXPECT_GT(js.avg_block_length, 2.0);
}

TEST(Superblock, ItBodyIsSpecializedWithBakedConditions) {
  Assembler a(Encoding::b32, kFlashBase);
  a.ins(ins_cmp_imm(r0, 0));
  a.ins(ins_it(Cond::eq, "e"));  // ite eq
  a.ins(ins_mov_imm(r1, 1));     // then-slot
  a.ins(ins_mov_imm(r1, 2));     // else-slot
  a.ins(ins_mov_reg(r0, r1, SetFlags::any));
  a.ins(ins_ret());
  const Image image = a.assemble();

  System sys(mcu());
  sys.load(image);
  EXPECT_EQ(sys.call(image.base, {0}), 1u);
  EXPECT_EQ(sys.call(image.base, {7}), 2u);

  CodeCache::Block* b =
      sys.core().code_cache()->block(image.base, true);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->entries.size(), 6u);
  EXPECT_EQ(b->entries[1].klass, ExecClass::it_);
  // Body slots carry their 1-based position and the statically-known
  // condition the dispatch gate applies (then = eq, else = ne).
  EXPECT_EQ(b->entries[2].it_info, 1);
  EXPECT_EQ(b->entries[2].d.insn.cond, Cond::eq);
  EXPECT_EQ(b->entries[3].it_info, 2);
  EXPECT_EQ(b->entries[3].d.insn.cond, Cond::ne);
  EXPECT_EQ(b->entries[4].it_info, 0);  // past the body
}

TEST(Superblock, UnspecializableItBodyCutsBlockBeforeIt) {
  // The IT body contains a load — a memory class, outside the pure
  // in-dispatch range — so the block must end just before the IT
  // instruction and the per-instruction tier runs the real predication.
  Assembler a(Encoding::b32, kFlashBase);
  a.load_literal(r2, kSramBase + 0x100);
  a.ins(ins_cmp_imm(r0, 0));
  const Label it_at = a.bound_label();
  a.ins(ins_it(Cond::eq, ""));
  a.ins(ins_ldst_imm(Op::ldr, r1, r2, 0));  // then-slot: unspecializable
  a.ins(ins_mov_reg(r0, r1, SetFlags::any));
  a.ins(ins_ret());
  a.pool();
  const Image image = a.assemble();

  System sys(mcu());
  sys.load(image);
  ASSERT_TRUE(sys.bus().write(kSramBase + 0x100, 4, 42, 0).ok());
  EXPECT_EQ(sys.call(image.base, {0, 9}), 42u);  // eq: load runs
  EXPECT_EQ(sys.call(image.base, {5, 9}), 9u);   // ne: annulled

  CodeCache::Block* b =
      sys.core().code_cache()->block(image.base, true);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->end_pc, a.label_address(it_at));
  for (const CodeCache::Entry& e : b->entries) {
    EXPECT_NE(e.d.insn.op, Op::it);
  }
}

// ----- self-modifying code: a store splitting a live block -------------------

TEST(Superblock, GuestStoreSplitsLiveBlockAndExecutesFresh) {
  // The loop body patches its own second instruction (mov r2,#5 ->
  // mov r2,#9) while the block containing it is live; pass 2 must run the
  // patched instruction. The store lands strictly inside the chained
  // range, so it is counted as a split, not just a kill.
  const std::uint32_t code_base = kSramBase + 0x4000;
  Assembler a(Encoding::b32, code_base);
  a.ins(ins_mov_imm(r5, 0, SetFlags::any));  // accumulator
  a.ins(ins_mov_imm(r4, 2, SetFlags::any));  // iterations
  const Label top = a.bound_label();
  Instruction nop;
  nop.op = Op::nop;
  a.ins(nop);  // pad: keeps the patch target off the block's first entry
  a.ins(ins_mov_imm(r2, 5, SetFlags::any));
  a.ins(ins_rrr(Op::add, r5, r5, r2, SetFlags::any));
  a.ins(ins_ldst_imm(Op::strh, r1, r0, 0));  // r0 = &patchme, r1 = new insn
  a.ins(ins_rri(Op::sub, r4, r4, 1, SetFlags::yes));
  a.b(top, Cond::ne);
  a.ins(ins_mov_reg(r0, r5, SetFlags::any));
  a.ins(ins_ret());
  const Image image = a.assemble();

  System sys(mcu());
  sys.load(image);
  const std::uint32_t patchme = a.label_address(top) + 2;
  const std::uint16_t patched =
      encode_halfword(ins_mov_imm(r2, 9, SetFlags::yes));
  EXPECT_EQ(sys.call(image.base, {patchme, patched}), 14u);
  const Core::JitStats js = sys.core().jit_stats();
  EXPECT_GE(js.block_splits, 1u);
  EXPECT_GE(js.blocks_killed, 1u);
}

// ----- FlashPatchUnit remap killing a hot block ------------------------------

TEST(Superblock, FpbRemapMidRunKillsHotBlock) {
  Assembler a(Encoding::b32, kFlashBase);
  const Label top = a.bound_label();
  Instruction nop;
  nop.op = Op::nop;
  a.ins(nop);
  const Label loop_branch = a.bound_label();
  a.b(top);
  const Image image = a.assemble();

  System sys(mcu());
  sys.load(image);
  FlashPatchUnit fpb;
  sys.core().set_flash_patch(&fpb);
  sys.core().reset(image.base, sys.initial_sp());
  ASSERT_EQ(sys.core().run(10'000), HaltReason::insn_limit);
  ASSERT_GT(sys.core().jit_stats().block_instructions, 0u);

  // Remap the loop branch (buried in a hot, currently-resumable block) to a
  // return served from patch RAM; the version bump must flush the block.
  FlashPatchUnit::Patch patch;
  patch.breakpoint = false;
  patch.replacement = ins_ret();
  patch.replacement_size = 2;
  fpb.set_patch(0, a.label_address(loop_branch), patch);
  EXPECT_EQ(sys.core().run(10'000), HaltReason::exited);
  EXPECT_GE(sys.core().jit_stats().block_flushes, 1u);
}

// ----- MPU execute revocation ------------------------------------------------

TEST(Superblock, MpuExecRevocationFaultsDespiteFormedBlocks) {
  Assembler a(Encoding::b32, kFlashBase);
  const Label top = a.bound_label();
  Instruction nop;
  nop.op = Op::nop;
  a.ins(nop);
  a.ins(ins_rri(Op::add, r0, r0, 1, SetFlags::any));
  a.b(top);
  const Image image = a.assemble();

  System sys(mcu().privileged(false).mpu(mem::MpuConfig::fine()));
  sys.load(image);
  mem::MpuRegion code;
  code.base = kFlashBase;
  code.size = 4096;
  code.read = true;
  code.execute = true;
  sys.mpu()->set_region(0, code);

  sys.core().reset(image.base, sys.initial_sp());
  ASSERT_EQ(sys.core().run(1'000), HaltReason::insn_limit);
  ASSERT_GT(sys.core().jit_stats().block_instructions, 0u);

  // Revoking execute permission must take effect even though the loop body
  // lives in a formed block validated under the old configuration.
  sys.mpu()->clear_region(0);
  EXPECT_EQ(sys.core().run(1'000), HaltReason::fault);
  EXPECT_EQ(sys.core().fault_info().kind, mem::Fault::mpu_violation);
  EXPECT_EQ(sys.core().fault_info().access, mem::Access::fetch);
  EXPECT_GE(sys.core().jit_stats().block_flushes, 1u);
}

// ----- interrupt delivery instants -------------------------------------------

// Raises Ivc line 1 (once) the first time the cycle counter passes
// `fire_at`, from the per-boundary cycle hook — the exact mechanism the
// experiments use, and one the superblock tier must honor at every entry
// boundary, including mid-block.
struct IrqRig {
  System sys;
  Ivc ivc;
  bool fired = false;

  IrqRig(SystemBuilder builder, const Image& image, std::uint32_t handler,
         std::uint64_t fire_at)
      : sys(std::move(builder)), ivc([] {
          Ivc::Config c;
          c.vector_table = kSramBase + 0x40;
          c.lines = 4;
          return c;
        }()) {
    sys.load(image);
    const std::uint8_t v[4] = {
        static_cast<std::uint8_t>(handler),
        static_cast<std::uint8_t>(handler >> 8),
        static_cast<std::uint8_t>(handler >> 16),
        static_cast<std::uint8_t>(handler >> 24)};
    EXPECT_TRUE(sys.bus().load_image(kSramBase + 0x40 + 4, v, 4));
    sys.core().set_interrupt_controller(&ivc);
    ivc.enable_line(1, 32);
    sys.core().set_cycle_hook([this, fire_at](std::uint64_t cycles) {
      if (!fired && cycles >= fire_at) {
        fired = true;
        ivc.raise(1, cycles);
      }
    });
    sys.core().reset(image.base, sys.initial_sp());
  }
};

// A 13-entry straight-line loop plus a mailbox-incrementing handler.
Image irq_loop_image(std::uint32_t* handler_pc) {
  Assembler a(Encoding::b32, kFlashBase);
  a.ins(ins_mov_imm(r0, 0, SetFlags::any));
  const Label top = a.bound_label();  // long straight-line block
  for (int k = 0; k < 12; ++k) {
    a.ins(ins_rri(Op::add, r0, r0, 1, SetFlags::any));
  }
  a.b(top);
  a.pool();
  const Label handler = a.bound_label();
  a.load_literal(r4, kSramBase + 0x100);
  a.ins(ins_ldst_imm(Op::ldr, r5, r4, 0));
  a.ins(ins_rri(Op::add, r5, r5, 1, SetFlags::any));
  a.ins(ins_ldst_imm(Op::str, r5, r4, 0));
  a.ins(ins_ret());  // exception return
  a.pool();
  const Image image = a.assemble();
  *handler_pc = a.label_address(handler);
  return image;
}

TEST(Superblock, IrqMidBlockDeliversAtSameInstantAsReferenceTier) {
  std::uint32_t handler_pc = 0;
  const Image image = irq_loop_image(&handler_pc);
  // 1-cycle flash against the uncached reference tier; the default
  // streamer flash against the per-instruction tier, which replays every
  // fetch through the port while blocks run the streamer inline.
  // (The 1-cycle regime's fixed-cost hits skip the streamer's bookkeeping
  // counters by design, so only the streamer regime compares them.)
  struct Regime {
    SystemBuilder sblock;
    SystemBuilder reference;
    bool streamer;
  };
  const Regime regimes[] = {
      {mcu(), mcu().dispatch_tier(DispatchTier::off), false},
      {streamer_mcu(), streamer_mcu().dispatch_tier(DispatchTier::per_insn),
       true},
  };
  for (const Regime& rg : regimes) {
    // Fire instants chosen to land mid-block (the block is 13 entries
    // long), at a block boundary, and deep into a later iteration.
    for (const std::uint64_t fire_at : {37u, 64u, 101u, 301u}) {
      IrqRig sblock(rg.sblock, image, handler_pc, fire_at);
      IrqRig reference(rg.reference, image, handler_pc, fire_at);
      ASSERT_EQ(sblock.sys.core().dispatch_tier(), DispatchTier::superblock);
      for (int step = 0; step < 600; ++step) {
        ASSERT_TRUE(sblock.sys.core().step());
        ASSERT_TRUE(reference.sys.core().step());
        ASSERT_EQ(sblock.sys.core().pc(), reference.sys.core().pc())
            << "fire_at " << fire_at << " step " << step;
        ASSERT_EQ(sblock.sys.core().cycles(), reference.sys.core().cycles())
            << "fire_at " << fire_at << " step " << step;
      }
      // Both tiers entered the handler exactly once (the mailbox increment
      // proves it ran to completion), raised at the same instant with the
      // same latency: the same delivery cycle.
      ASSERT_EQ(sblock.ivc.latencies(1).size(), 1u);
      EXPECT_EQ(sblock.ivc.latencies(1), reference.ivc.latencies(1));
      EXPECT_EQ(reference.ivc.stats().entries, 1u);
      EXPECT_EQ(
          sblock.sys.bus().read(kSramBase + 0x100, 4, mem::Access::read, 0)
              .value,
          1u);
      if (rg.streamer) {
        expect_same_flash_stats(sblock.sys, reference.sys);
      }
      EXPECT_GT(sblock.sys.core().jit_stats().block_instructions, 0u);
    }
  }
}

// ----- byte-identity against the reference tier ------------------------------

TEST(Superblock, LongRunMatchesReferenceTierExactly) {
  // A loop mixing every specialization family (ALU, IT body, memory, taken
  // and fall-through branches) run to completion on both tiers through
  // run() — the quiet-boundary batch path, not single-stepping — must land
  // on identical (r0, cycles, instructions).
  Assembler a(Encoding::b32, kFlashBase);
  a.ins(ins_mov_imm(r0, 0, SetFlags::any));
  a.ins(ins_mov_imm(r1, 500, SetFlags::any));
  a.load_literal(r2, kSramBase + 0x200);
  const Label top = a.bound_label();
  a.ins(ins_ldst_imm(Op::str, r1, r2, 0));
  a.ins(ins_ldst_imm(Op::ldr, r3, r2, 0));
  a.ins(ins_rri(Op::and_, r4, r3, 1, SetFlags::yes));
  a.ins(ins_it(Cond::ne, "e"));
  a.ins(ins_rri(Op::add, r0, r0, 3));
  a.ins(ins_rri(Op::add, r0, r0, 1));
  a.ins(ins_rri(Op::sub, r1, r1, 1, SetFlags::yes));
  a.b(top, Cond::ne);
  a.ins(ins_ret());
  a.pool();
  const Image image = a.assemble();

  System sblock(mcu());
  System reference(mcu().dispatch_tier(DispatchTier::off));
  std::uint64_t cycles[2] = {0, 0};
  std::uint64_t insns[2] = {0, 0};
  std::uint32_t r0v[2] = {0, 0};
  int k = 0;
  for (System* sys : {&sblock, &reference}) {
    sys->load(image);
    sys->core().reset(image.base, sys->initial_sp());
    ASSERT_EQ(sys->core().run(100'000), HaltReason::exited);
    cycles[k] = sys->core().cycles();
    insns[k] = sys->core().instructions();
    r0v[k] = sys->core().reg(r0);
    ++k;
  }
  EXPECT_EQ(cycles[0], cycles[1]);
  EXPECT_EQ(insns[0], insns[1]);
  EXPECT_EQ(r0v[0], r0v[1]);
  EXPECT_EQ(r0v[0], 1000u);  // 250 odd passes * 3 + 250 even * 1
  EXPECT_GT(sblock.core().jit_stats().block_instructions, 3000u);
}

// ----- default wait-stated flash: the streamer charged inline ---------------
// Each case runs the superblock tier against the per-instruction tier,
// which replays every fetch through the port, and demands identical cycles
// and identical streamer statistics.

TEST(Superblock, StreamerCycleLimitParksMidBlockAndResumes) {
  Assembler a(Encoding::b32, kFlashBase);
  a.ins(ins_mov_imm(r0, 0, SetFlags::any));
  a.ins(ins_mov_imm(r1, 200, SetFlags::any));
  const Label top = a.bound_label();
  for (int k = 0; k < 10; ++k) {
    a.ins(ins_rri(Op::add, r0, r0, 1, SetFlags::any));
  }
  a.ins(ins_rri(Op::sub, r1, r1, 1, SetFlags::yes));
  const Label back = a.bound_label();
  a.b(top, Cond::ne);
  a.ins(ins_ret());
  const Image image = a.assemble();

  System sblock(streamer_mcu());
  System per_insn(streamer_mcu().dispatch_tier(DispatchTier::per_insn));
  for (System* sys : {&sblock, &per_insn}) {
    sys->load(image);
    sys->core().reset(image.base, sys->initial_sp());
  }
  // Cycle limits 7 apart land all over the 12-entry block.
  int mid_block_parks = 0;
  HaltReason r = HaltReason::none;
  for (std::uint64_t limit = 7; r == HaltReason::none; limit += 7) {
    r = sblock.core().run_chunk(~std::uint64_t{0}, limit);
    ASSERT_EQ(per_insn.core().run_chunk(~std::uint64_t{0}, limit), r);
    ASSERT_EQ(sblock.core().pc(), per_insn.core().pc()) << "limit " << limit;
    ASSERT_EQ(sblock.core().cycles(), per_insn.core().cycles());
    ASSERT_EQ(sblock.core().instructions(), per_insn.core().instructions());
    const std::uint32_t pc = sblock.core().pc();
    if (pc > a.label_address(top) && pc <= a.label_address(back)) {
      ++mid_block_parks;
    }
  }
  EXPECT_EQ(r, HaltReason::exited);
  EXPECT_EQ(sblock.core().reg(r0), 2000u);
  EXPECT_GT(mid_block_parks, 10);
  EXPECT_GT(sblock.core().jit_stats().block_instructions, 2000u);
  expect_same_flash_stats(sblock, per_insn);
}

TEST(Superblock, StreamerLiteralLoadInsideBlockDisruptsLikePerInsn) {
  // A literal-pool load is a flash data read that repositions the
  // instruction streamer (§2.2); inside a block it runs through the generic
  // funnel, after the entry's own fetch, exactly as per-insn orders them.
  Assembler a(Encoding::b32, kFlashBase);
  a.ins(ins_mov_imm(r0, 0, SetFlags::any));
  a.ins(ins_mov_imm(r1, 100, SetFlags::any));
  const Label top = a.bound_label();
  a.ins(ins_rri(Op::add, r0, r0, 1, SetFlags::any));
  a.load_literal(r2, 0x1234'5678u);
  a.ins(ins_rrr(Op::eor, r0, r0, r2, SetFlags::any));
  a.ins(ins_rri(Op::sub, r1, r1, 1, SetFlags::yes));
  a.b(top, Cond::ne);
  a.ins(ins_ret());
  a.pool();
  const Image image = a.assemble();

  System sblock(streamer_mcu());
  System per_insn(streamer_mcu().dispatch_tier(DispatchTier::per_insn));
  for (System* sys : {&sblock, &per_insn}) {
    sys->load(image);
    sys->core().reset(image.base, sys->initial_sp());
    ASSERT_EQ(sys->core().run(100'000), HaltReason::exited);
  }
  EXPECT_EQ(sblock.core().reg(r0), per_insn.core().reg(r0));
  EXPECT_EQ(sblock.core().cycles(), per_insn.core().cycles());
  expect_same_flash_stats(sblock, per_insn);
  EXPECT_GE(sblock.flash().stats().data_disruptions, 100u);

  CodeCache::Block* b =
      sblock.core().code_cache()->block(a.label_address(top), true);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->entries.size(), 5u);
  EXPECT_EQ(b->entries[1].d.insn.op, Op::ldr);
  EXPECT_TRUE(b->entries[1].streamed());
  EXPECT_GT(sblock.core().jit_stats().block_instructions, 400u);
}

TEST(Superblock, StreamerTwoReadFetchStraddlingALine) {
  // A 32-bit B32 instruction at line offset 6 of the 8-byte flash line: its
  // second halfword is the next line's first access, issued at the first
  // read's completion cycle.
  Assembler a(Encoding::b32, kFlashBase);
  a.ins(ins_mov_imm(r0, 0, SetFlags::any));
  a.ins(ins_mov_imm(r1, 50, SetFlags::any));
  const Label top = a.bound_label();
  Instruction nop;
  nop.op = Op::nop;
  a.ins(nop);
  const Label wide = a.bound_label();
  a.ins(ins_rri(Op::add, r0, r0, 1000, SetFlags::any));
  a.ins(ins_rri(Op::sub, r1, r1, 1, SetFlags::yes));
  a.b(top, Cond::ne);
  a.ins(ins_ret());
  const Image image = a.assemble();
  ASSERT_EQ(a.label_address(wide) % 8, 6u);

  System sblock(streamer_mcu());
  System per_insn(streamer_mcu().dispatch_tier(DispatchTier::per_insn));
  for (System* sys : {&sblock, &per_insn}) {
    sys->load(image);
    sys->core().reset(image.base, sys->initial_sp());
    ASSERT_EQ(sys->core().run(100'000), HaltReason::exited);
  }
  EXPECT_EQ(sblock.core().reg(r0), 50'000u);
  EXPECT_EQ(sblock.core().cycles(), per_insn.core().cycles());
  expect_same_flash_stats(sblock, per_insn);

  CodeCache::Block* b =
      sblock.core().code_cache()->block(a.label_address(top), true);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->entries.size(), 4u);
  EXPECT_EQ(b->entries[1].pc, a.label_address(wide));
  EXPECT_EQ(b->entries[1].d.size, 4);
  EXPECT_TRUE(b->entries[1].streamed());
  EXPECT_TRUE(b->entries[0].streamed());
}

TEST(Superblock, StreamerLoadImageReprogramsBlock) {
  Assembler a(Encoding::b32, kFlashBase);
  a.ins(ins_mov_imm(r0, 1, SetFlags::any));
  const Label patch_at = a.bound_label();
  a.ins(ins_rri(Op::add, r0, r0, 2, SetFlags::any));
  a.ins(ins_rri(Op::add, r0, r0, 4, SetFlags::any));
  a.ins(ins_ret());
  const Image image = a.assemble();
  const std::uint16_t add7 =
      encode_halfword(ins_rri(Op::add, r0, r0, 7, SetFlags::any));
  const std::uint8_t bytes[2] = {static_cast<std::uint8_t>(add7),
                                 static_cast<std::uint8_t>(add7 >> 8)};

  System sblock(streamer_mcu());
  System per_insn(streamer_mcu().dispatch_tier(DispatchTier::per_insn));
  for (System* sys : {&sblock, &per_insn}) {
    sys->load(image);
    EXPECT_EQ(sys->call(image.base), 7u);
    // Flash reprogramming between calls: the bus write snoop must kill the
    // streamer-backed block chained over these bytes.
    ASSERT_TRUE(sys->bus().load_image(a.label_address(patch_at), bytes, 2));
    EXPECT_EQ(sys->call(image.base), 12u);
  }
  EXPECT_EQ(sblock.core().cycles(), per_insn.core().cycles());
  expect_same_flash_stats(sblock, per_insn);
  const Core::JitStats js = sblock.core().jit_stats();
  EXPECT_GE(js.blocks_killed, 1u);
  EXPECT_GE(js.block_splits, 1u);
  EXPECT_GE(js.blocks_formed, 2u);
}

TEST(Superblock, StreamerFpbPatchOverBlockServesFromPatchRam) {
  Assembler a(Encoding::b32, kFlashBase);
  a.ins(ins_mov_imm(r0, 0, SetFlags::any));
  a.load_literal(r1, 4000);
  const Label top = a.bound_label();
  a.ins(ins_rri(Op::add, r0, r0, 1, SetFlags::any));
  const Label patched = a.bound_label();
  a.ins(ins_rri(Op::add, r0, r0, 1, SetFlags::any));
  a.ins(ins_rri(Op::sub, r1, r1, 1, SetFlags::yes));
  a.b(top, Cond::ne);
  a.ins(ins_ret());
  a.pool();
  const Image image = a.assemble();

  System sblock(streamer_mcu());
  System per_insn(streamer_mcu().dispatch_tier(DispatchTier::per_insn));
  FlashPatchUnit fpbs[2];
  int k = 0;
  for (System* sys : {&sblock, &per_insn}) {
    sys->load(image);
    sys->core().set_flash_patch(&fpbs[k++]);
    sys->core().reset(image.base, sys->initial_sp());
    ASSERT_EQ(sys->core().run(5'000), HaltReason::insn_limit);
  }
  ASSERT_EQ(sblock.core().cycles(), per_insn.core().cycles());
  ASSERT_GT(sblock.core().jit_stats().block_instructions, 0u);

  // Patch the second add (mid-block) to add 3: served from patch RAM in a
  // fixed cycle, it sits in the re-formed block between streamed entries.
  FlashPatchUnit::Patch patch;
  patch.breakpoint = false;
  patch.replacement = ins_rri(Op::add, r0, r0, 3, SetFlags::any);
  patch.replacement_size = 2;
  for (FlashPatchUnit& fpb : fpbs) {
    fpb.set_patch(0, a.label_address(patched), patch);
  }
  for (System* sys : {&sblock, &per_insn}) {
    ASSERT_EQ(sys->core().run(100'000), HaltReason::exited);
  }
  EXPECT_EQ(sblock.core().reg(r0), per_insn.core().reg(r0));
  EXPECT_GT(sblock.core().reg(r0), 8000u);
  EXPECT_EQ(sblock.core().cycles(), per_insn.core().cycles());
  expect_same_flash_stats(sblock, per_insn);
  EXPECT_GE(sblock.core().jit_stats().block_flushes, 2u);

  CodeCache::Block* b =
      sblock.core().code_cache()->block(a.label_address(top), true);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->entries.size(), 4u);
  EXPECT_TRUE(b->entries[0].streamed());
  EXPECT_FALSE(b->entries[1].streamed());
  EXPECT_EQ(b->entries[1].fetch_cycles, 1u);
  EXPECT_TRUE(b->entries[2].streamed());
}

}  // namespace
}  // namespace aces::cpu
