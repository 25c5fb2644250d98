// Decoded-instruction cache: invalidation correctness.
//
// The decode cache only speeds up the host; every test here is about the
// ways cached decodes can go stale — guest stores into code (self-modifying
// code through the core's DirectSpan fast path), host pokes through the bus
// write-snoop, FlashPatchUnit remaps, MPU reconfiguration and fault-injector
// bit flips in code memory — plus differential runs proving the cached and
// uncached simulators retire identical (pc, cycles) traces.
#include <gtest/gtest.h>

#include <vector>

#include "cpu/fpb.h"
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

// Encodes `insn` as one B32 halfword (the tests patch 16-bit slots).
std::uint16_t encode_halfword(const Instruction& insn) {
  const isa::Codec& codec = isa::b32_codec();
  const int size = codec.size_for(insn, 0);
  EXPECT_EQ(size, 2);
  std::vector<std::uint8_t> bytes;
  codec.encode(insn, 0, size, bytes);
  return static_cast<std::uint16_t>(bytes[0] | (bytes[1] << 8));
}

// ----- self-modifying code through the core's own store path ----------------

TEST(DecodeCache, GuestStoreOverCachedInstructionIsExecutedFresh) {
  // Loop body runs twice. The first pass executes the original mov r2,#5
  // (filling the decode cache) and then overwrites that very instruction
  // with mov r2,#9; the second pass must execute the patched instruction.
  // A stale decode-cache entry would yield 5 + 5 instead of 5 + 9.
  const std::uint32_t code_base = kSramBase + 0x4000;
  Assembler a(Encoding::b32, code_base);
  a.ins(ins_mov_imm(r5, 0, SetFlags::any));  // accumulator
  a.ins(ins_mov_imm(r4, 2, SetFlags::any));  // iterations
  const Label top = a.bound_label();
  const Label patchme = a.bound_label();
  a.ins(ins_mov_imm(r2, 5, SetFlags::any));
  a.ins(ins_rrr(Op::add, r5, r5, r2, SetFlags::any));
  a.ins(ins_ldst_imm(Op::strh, r1, r0, 0));  // r0 = &patchme, r1 = new insn
  a.ins(ins_rri(Op::sub, r4, r4, 1, SetFlags::yes));
  a.b(top, Cond::ne);
  a.ins(ins_mov_reg(r0, r5, SetFlags::any));
  a.ins(ins_ret());
  const Image image = a.assemble();

  // Pinned to the per-instruction tier: the assertions below count decode
  // cache hits/invalidations, which the superblock tier bypasses (its SMC
  // handling is covered by superblock_test.cpp and the three-way fuzzer).
  System sys(profiles::modern_mcu()
                 .flash_size(16 * 1024)
                 .dispatch_tier(DispatchTier::per_insn));
  sys.load(image);
  const std::uint16_t patched =
      encode_halfword(ins_mov_imm(r2, 9, SetFlags::yes));
  EXPECT_EQ(sys.call(image.base, {a.label_address(patchme), patched}), 14u);
  ASSERT_NE(sys.core().code_cache(), nullptr);
  // Invalidation is targeted: each pass's store kills the patched line
  // (one invalidation per store, plus the reset() flush), while the rest
  // of the loop body stays cached and re-hits on the second pass.
  EXPECT_EQ(sys.core().code_cache()->stats().decode_invalidations, 3u);
  EXPECT_GT(sys.core().code_cache()->stats().decode_hits, 0u);
}

// ----- host poke through the bus write snoop --------------------------------

TEST(DecodeCache, HostBusWriteOverCachedInstructionIsSeen) {
  // Infinite loop in SRAM; after the decode cache is warm, the host pokes
  // the loop branch into a return through the bus. A stale entry would spin
  // to the instruction budget forever.
  const std::uint32_t code_base = kSramBase + 0x4000;
  Assembler a(Encoding::b32, code_base);
  const Label top = a.bound_label();
  Instruction nop;
  nop.op = Op::nop;
  a.ins(nop);
  const Label loop_branch = a.bound_label();
  a.b(top);
  const Image image = a.assemble();

  System sys(profiles::modern_mcu().flash_size(16 * 1024));
  sys.load(image);
  sys.core().reset(image.base, sys.initial_sp());
  ASSERT_EQ(sys.core().run(10'000), HaltReason::insn_limit);

  ASSERT_TRUE(sys.bus()
                  .write(a.label_address(loop_branch), 2,
                         encode_halfword(ins_ret()), 0)
                  .ok());
  EXPECT_EQ(sys.core().run(10'000), HaltReason::exited);
}

// ----- FlashPatchUnit remap mid-run ----------------------------------------

TEST(DecodeCache, FpbRemapMidRunOverridesCachedDecode) {
  Assembler a(Encoding::b32, kFlashBase);
  const Label top = a.bound_label();
  Instruction nop;
  nop.op = Op::nop;
  a.ins(nop);
  const Label loop_branch = a.bound_label();
  a.b(top);
  const Image image = a.assemble();

  System sys(profiles::modern_mcu().flash_size(16 * 1024));
  sys.load(image);
  FlashPatchUnit fpb;
  sys.core().set_flash_patch(&fpb);
  sys.core().reset(image.base, sys.initial_sp());
  ASSERT_EQ(sys.core().run(10'000), HaltReason::insn_limit);

  // Remap the (cached) loop branch to a return served from patch RAM.
  FlashPatchUnit::Patch patch;
  patch.breakpoint = false;
  patch.replacement = ins_ret();
  patch.replacement_size = 2;
  fpb.set_patch(0, a.label_address(loop_branch), patch);
  EXPECT_EQ(sys.core().run(10'000), HaltReason::exited);

  // And a breakpoint at the same site halts once the patch is cleared.
  sys.core().reset(image.base, sys.initial_sp());
  fpb.clear(0);
  fpb.set_breakpoint(0, a.label_address(loop_branch));
  EXPECT_EQ(sys.core().run(10'000), HaltReason::breakpoint);
}

// ----- MPU reconfiguration ---------------------------------------------------

TEST(DecodeCache, MpuReconfigurationRevokesCachedFetchPermission) {
  Assembler a(Encoding::b32, kFlashBase);
  const Label top = a.bound_label();
  Instruction nop;
  nop.op = Op::nop;
  a.ins(nop);
  a.b(top);
  const Image image = a.assemble();

  System sys(profiles::modern_mcu()
                 .flash_size(16 * 1024)
                 .privileged(false)
                 .mpu(mem::MpuConfig::fine()));
  sys.load(image);
  mem::MpuRegion code;
  code.base = kFlashBase;
  code.size = 4096;
  code.read = true;
  code.execute = true;
  sys.mpu()->set_region(0, code);

  sys.core().reset(image.base, sys.initial_sp());
  ASSERT_EQ(sys.core().run(1'000), HaltReason::insn_limit);

  // Revoking execute permission must take effect even though every fetch in
  // the loop is a decode-cache hit (validated under the old configuration).
  sys.mpu()->clear_region(0);
  EXPECT_EQ(sys.core().run(1'000), HaltReason::fault);
  EXPECT_EQ(sys.core().fault_info().kind, mem::Fault::mpu_violation);
  EXPECT_EQ(sys.core().fault_info().access, mem::Access::fetch);
}

// ----- fault-injector flips in code memory (differential) -------------------

// Builds the shared differential workload: a counting loop in TCM.
Image tcm_loop_image() {
  Assembler a(Encoding::b32, kTcmBase);
  a.ins(ins_mov_imm(r0, 0, SetFlags::any));
  a.ins(ins_mov_imm(r1, 200, SetFlags::any));
  const Label top = a.bound_label();
  a.ins(ins_rri(Op::add, r0, r0, 1, SetFlags::any));
  a.ins(ins_rri(Op::sub, r1, r1, 1, SetFlags::yes));
  a.b(top, Cond::ne);
  a.ins(ins_ret());
  return a.assemble();
}

SystemBuilder tcm_system(bool fault_tolerant, DispatchTier tier) {
  mem::TcmConfig tcm;
  tcm.size_bytes = 64;  // tiny: upsets land in code with high probability
  tcm.access_cycles = 1;
  tcm.fault_tolerant = fault_tolerant;
  mem::FaultInjectorConfig inj;
  inj.upsets_per_mcycle = 3000.0;
  return SystemBuilder()
      .encoding(Encoding::b32)
      .timings(CoreTimings::modern_mcu())
      .flash_size(4 * 1024)
      .tcm(tcm)
      .fault_injector(inj, 0xFEED)
      .dispatch_tier(tier);
}

// Steps `cached` and `reference` in lock-step, asserting identical retired
// (pc, cycles) traces until both halt (or `budget` instructions).
void expect_identical_traces(System& cached, System& reference,
                             std::uint32_t entry, std::uint64_t budget) {
  cached.core().reset(entry, cached.initial_sp());
  reference.core().reset(entry, reference.initial_sp());
  for (std::uint64_t k = 0; k < budget; ++k) {
    const bool a = cached.core().step();
    const bool b = reference.core().step();
    ASSERT_EQ(a, b) << "step " << k;
    ASSERT_EQ(cached.core().pc(), reference.core().pc()) << "step " << k;
    ASSERT_EQ(cached.core().cycles(), reference.core().cycles())
        << "step " << k;
    if (!a) {
      break;
    }
  }
  ASSERT_EQ(cached.core().halt_reason(), reference.core().halt_reason());
  ASSERT_EQ(cached.core().reg(isa::r0), reference.core().reg(isa::r0));
  ASSERT_EQ(cached.core().instructions(), reference.core().instructions());
}

TEST(DecodeCache, InjectorFlipsInCodeKeepCachedAndUncachedIdentical) {
  // Identically seeded soft-error storms over TCM-resident code: the cached
  // run must mirror the uncached one bit for bit, including decodes of
  // corrupted instructions (fault tolerance off) and hold-and-repair stalls
  // (fault tolerance on).
  const Image image = tcm_loop_image();
  for (const bool ft : {false, true}) {
    System cached(tcm_system(ft, DispatchTier::superblock));
    System reference(tcm_system(ft, DispatchTier::off));
    ASSERT_NE(cached.core().code_cache(), nullptr);
    ASSERT_EQ(reference.core().code_cache(), nullptr);
    cached.load(image);
    reference.load(image);
    expect_identical_traces(cached, reference, image.base, 5'000);
  }
}

// ----- snoop window precision ------------------------------------------------

// A data-heavy loop in (default, streamer-backed) flash storing to SRAM far
// from the code.
Image flash_store_loop_image() {
  Assembler a(Encoding::b32, kFlashBase);
  a.load_literal(r1, kSramBase + 0x100);
  a.ins(ins_mov_imm(r2, 50, SetFlags::any));
  const Label top = a.bound_label();
  a.ins(ins_ldst_imm(Op::str, r2, r1, 0));
  a.ins(ins_rri(Op::sub, r2, r2, 1, SetFlags::yes));
  a.b(top, Cond::ne);
  a.ins(ins_mov_imm(r0, 0, SetFlags::any));
  a.ins(ins_ret());
  a.pool();
  return a.assemble();
}

TEST(DecodeCache, DataStoresOutsideCodeWindowDoNotInvalidate) {
  // The SMC snoop is range-filtered: a data-heavy loop must not thrash the
  // decode cache. One invalidation comes from reset(); stores to SRAM data
  // far from the (flash) code must add none. Pinned to the per-instruction
  // tier, whose hits are this test's subject (on the superblock tier the
  // loop runs from blocks instead; see the twin below).
  const Image image = flash_store_loop_image();
  System sys(profiles::modern_mcu().flash_size(16 * 1024).dispatch_tier(
      DispatchTier::per_insn));
  sys.load(image);
  (void)sys.call(image.base);
  const CodeCache::Stats& s = sys.core().code_cache()->stats();
  EXPECT_GT(s.decode_hits, 100u);
  EXPECT_EQ(s.decode_invalidations, 1u);  // the reset() safety net only
}

TEST(DecodeCache, DataStoresOutsideCodeWindowKillNoSuperblock) {
  // The superblock twin: the same loop runs from streamer-backed blocks,
  // and the stores must kill none of them.
  const Image image = flash_store_loop_image();
  System sys(profiles::modern_mcu().flash_size(16 * 1024));
  sys.load(image);
  (void)sys.call(image.base);
  const Core::JitStats js = sys.core().jit_stats();
  EXPECT_GT(js.block_instructions, 100u);
  EXPECT_EQ(js.blocks_killed, 0u);
  EXPECT_EQ(js.block_flushes, 1u);  // the reset() safety net only
}

// ----- a write longer than one instruction, shorter than a reload ----------

TEST(DecodeCache, HostPatchOf128BytesOverCachedFlashLoopIsExecutedFresh) {
  // An endless loop in (default, streamer-backed) flash whose inner body is
  // 64 halfword `add r0` — 128 bytes, spread over several blocks and 64
  // decode lines. Once the cached tier has run it warm, the host rewrites
  // the whole body to `add r2` in one 128-byte load_image: long enough to
  // span many lines and blocks, short enough to be range-killed rather than
  // flushed. Both cached tiers must then execute the new bytes with the
  // uncached reference's (pc, cycles) trace.
  constexpr int kAdds = 64;
  Assembler a(Encoding::b32, kFlashBase);
  a.ins(ins_mov_imm(r0, 0, SetFlags::any));
  const Label outer = a.bound_label();
  a.ins(ins_mov_imm(r1, 4, SetFlags::any));
  const Label inner = a.bound_label();
  const Label body = a.bound_label();
  for (int k = 0; k < kAdds; ++k) {
    a.ins(ins_rri(Op::add, r0, r0, 1, SetFlags::any));
  }
  a.ins(ins_rri(Op::sub, r1, r1, 1, SetFlags::yes));
  a.b(inner, Cond::ne);
  a.b(outer);
  const Image image = a.assemble();

  std::vector<std::uint8_t> patch;
  const std::uint16_t add_r2 =
      encode_halfword(ins_rri(Op::add, r2, r2, 1, SetFlags::any));
  for (int k = 0; k < kAdds; ++k) {
    patch.push_back(static_cast<std::uint8_t>(add_r2));
    patch.push_back(static_cast<std::uint8_t>(add_r2 >> 8));
  }
  ASSERT_EQ(patch.size(), 128u);

  const auto lockstep = [](System& cached, System& reference, int steps) {
    for (int k = 0; k < steps; ++k) {
      ASSERT_TRUE(cached.core().step()) << "step " << k;
      ASSERT_TRUE(reference.core().step()) << "step " << k;
      ASSERT_EQ(cached.core().pc(), reference.core().pc()) << "step " << k;
      ASSERT_EQ(cached.core().cycles(), reference.core().cycles())
          << "step " << k;
    }
  };
  const auto mcu = [](DispatchTier tier) {
    return profiles::modern_mcu().flash_size(16 * 1024).dispatch_tier(tier);
  };
  for (const DispatchTier tier :
       {DispatchTier::per_insn, DispatchTier::superblock}) {
    SCOPED_TRACE(tier == DispatchTier::per_insn ? "per_insn" : "superblock");
    System cached(mcu(tier));
    System reference(mcu(DispatchTier::off));
    ASSERT_EQ(cached.core().dispatch_tier(), tier);
    for (System* sys : {&cached, &reference}) {
      sys->load(image);
      sys->core().reset(image.base, sys->initial_sp());
    }
    lockstep(cached, reference, 1500);
    const Core::JitStats warm = cached.core().jit_stats();
    if (tier == DispatchTier::superblock) {
      ASSERT_GT(warm.block_instructions, 1000u);
    } else {
      ASSERT_GT(warm.decode_hits, 1000u);
    }

    for (System* sys : {&cached, &reference}) {
      ASSERT_TRUE(sys->bus().load_image(a.label_address(body), patch.data(),
                                        128));
    }
    const std::uint32_t r0_at_patch = cached.core().reg(r0);
    lockstep(cached, reference, 1500);
    EXPECT_GT(cached.core().reg(r2), 0u);  // the new bytes ran
    EXPECT_EQ(cached.core().reg(r2), reference.core().reg(r2));
    EXPECT_EQ(cached.core().reg(r0), reference.core().reg(r0));
    EXPECT_EQ(cached.core().reg(r0), r0_at_patch);  // no stale add r0 ran

    // Range-killed, not flushed: the body's lines (one count for the
    // write) or blocks died, the reset() flush is still the only flush.
    const Core::JitStats after = cached.core().jit_stats();
    if (tier == DispatchTier::superblock) {
      EXPECT_GT(after.blocks_killed, warm.blocks_killed);
      EXPECT_EQ(after.block_flushes, 1u);
      EXPECT_GT(after.block_instructions, warm.block_instructions + 1000u);
    } else {
      EXPECT_EQ(after.decode_invalidations, warm.decode_invalidations + 1);
    }
  }
}

}  // namespace
}  // namespace aces::cpu
