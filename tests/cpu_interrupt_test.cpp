// Interrupt machinery tests: ClassicVic (software save/restore, NMI) and
// Ivc (hardware stacking, tail-chaining, priority nesting), plus the
// §3.1.2 restartable ldm/stm predictability feature.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "cpu/ivc.h"
#include "cpu/profiles.h"
#include "cpu/system.h"
#include "cpu/vic.h"
#include "isa/assembler.h"

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
using namespace isa;

constexpr std::uint32_t kMailbox = kSramBase + 0x100;

SystemBuilder mcu_config() {
  return profiles::modern_mcu().flash_size(64 * 1024);
}

SystemBuilder hp_config() {
  return profiles::legacy_hp().flash_size(64 * 1024);
}

// Busy loop that increments r0 forever (interrupt victim).
void emit_busy_loop(Assembler& a) {
  const Label top = a.bound_label();
  a.ins(ins_rri(Op::add, r0, r0, 1, SetFlags::any));
  a.b(top);
}

// Handler that increments the mailbox word and returns from exception.
Label emit_count_handler(Assembler& a, bool software_save) {
  const Label h = a.bound_label();
  if (software_save) {
    // Software preamble: save what the handler clobbers.
    a.ins(ins_push((1u << r4) | (1u << r5) | (1u << lr)));
  }
  a.load_literal(r4, kMailbox);
  a.ins(ins_ldst_imm(Op::ldr, r5, r4, 0));
  a.ins(ins_rri(Op::add, r5, r5, 1, SetFlags::any));
  a.ins(ins_ldst_imm(Op::str, r5, r4, 0));
  if (software_save) {
    a.ins(ins_pop((1u << r4) | (1u << r5) | (1u << pc)));
  } else {
    a.ins(ins_ret());  // bx lr -> exception return magic
  }
  a.pool();
  return h;
}

std::uint32_t read_mailbox(System& sys) {
  return sys.bus().read(kMailbox, 4, mem::Access::read, 0).value;
}

// ----- ClassicVic ---------------------------------------------------------------

TEST(ClassicVicTest, IrqEntryRunsHandlerAndReturns) {
  Assembler a(Encoding::w32, kFlashBase);
  const Label entry = a.bound_label();
  emit_busy_loop(a);
  a.pool();
  const Label handler = emit_count_handler(a, /*software_save=*/true);
  const Image image = a.assemble();

  System sys(hp_config());
  sys.load(image);
  ClassicVic::Config vc;
  vc.irq_handler = a.label_address(handler);
  ClassicVic vic(vc);
  sys.core().set_interrupt_controller(&vic);
  sys.core().reset(a.label_address(entry), sys.initial_sp());

  for (int k = 0; k < 50; ++k) {
    (void)sys.core().step();
  }
  const std::uint32_t loop_count_before = sys.core().reg(r0);
  vic.raise(ClassicVic::kIrq, sys.core().cycles());
  for (int k = 0; k < 200; ++k) {
    (void)sys.core().step();
  }
  EXPECT_EQ(read_mailbox(sys), 1u);
  // The main loop resumed and kept counting.
  EXPECT_GT(sys.core().reg(r0), loop_count_before);
  EXPECT_EQ(vic.active_depth(), 0u);
  ASSERT_EQ(vic.latencies(ClassicVic::kIrq).size(), 1u);
}

TEST(ClassicVicTest, MaskedIrqWaits) {
  Assembler a(Encoding::w32, kFlashBase);
  const Label entry = a.bound_label();
  Instruction cpsid;
  cpsid.op = Op::cps;
  cpsid.uses_imm = true;
  cpsid.imm = 1;
  a.ins(cpsid);
  for (int k = 0; k < 30; ++k) {
    a.ins(ins_rri(Op::add, r0, r0, 1, SetFlags::any));
  }
  Instruction cpsie = cpsid;
  cpsie.imm = 0;
  a.ins(cpsie);
  emit_busy_loop(a);
  a.pool();
  const Label handler = emit_count_handler(a, true);
  const Image image = a.assemble();

  System sys(hp_config());
  sys.load(image);
  ClassicVic::Config vc;
  vc.irq_handler = a.label_address(handler);
  ClassicVic vic(vc);
  sys.core().set_interrupt_controller(&vic);
  sys.core().reset(a.label_address(entry), sys.initial_sp());

  (void)sys.core().step();  // cpsid
  vic.raise(ClassicVic::kIrq, sys.core().cycles());
  for (int k = 0; k < 10; ++k) {
    (void)sys.core().step();
  }
  EXPECT_EQ(read_mailbox(sys), 0u);  // still masked
  for (int k = 0; k < 100; ++k) {
    (void)sys.core().step();
  }
  EXPECT_EQ(read_mailbox(sys), 1u);  // taken after cpsie
}

TEST(ClassicVicTest, NmiFiqIgnoresMasking) {
  Assembler a(Encoding::w32, kFlashBase);
  const Label entry = a.bound_label();
  Instruction cpsid;
  cpsid.op = Op::cps;
  cpsid.uses_imm = true;
  cpsid.imm = 1;
  a.ins(cpsid);
  emit_busy_loop(a);
  a.pool();
  const Label handler = emit_count_handler(a, true);
  const Image image = a.assemble();

  for (const bool nmi : {false, true}) {
    System sys(hp_config());
    sys.load(image);
    ClassicVic::Config vc;
    vc.fiq_handler = a.label_address(handler);
    vc.fiq_is_nmi = nmi;
    ClassicVic vic(vc);
    sys.core().set_interrupt_controller(&vic);
    sys.core().reset(a.label_address(entry), sys.initial_sp());
    for (int k = 0; k < 20; ++k) {
      (void)sys.core().step();
    }
    vic.raise(ClassicVic::kFiq, sys.core().cycles());
    for (int k = 0; k < 100; ++k) {
      (void)sys.core().step();
    }
    // With masking honored the FIQ starves behind cpsid; as NMI it lands.
    EXPECT_EQ(read_mailbox(sys), nmi ? 1u : 0u) << "nmi=" << nmi;
  }
}

TEST(ClassicVicTest, FiqPreemptsIrqHandler) {
  Assembler a(Encoding::w32, kFlashBase);
  const Label entry = a.bound_label();
  emit_busy_loop(a);
  a.pool();
  // IRQ handler: long spin so the FIQ arrives mid-handler.
  const Label irq_handler = a.bound_label();
  a.ins(ins_push((1u << r4) | (1u << lr)));
  a.ins(ins_mov_imm(r4, 200, SetFlags::any));
  const Label spin = a.bound_label();
  a.ins(ins_rri(Op::sub, r4, r4, 1, SetFlags::yes));
  a.b(spin, Cond::ne);
  a.load_literal(r4, kMailbox + 4);
  a.ins(ins_mov_imm(r5, 1, SetFlags::any));
  a.ins(ins_ldst_imm(Op::str, r5, r4, 0));
  a.ins(ins_pop((1u << r4) | (1u << pc)));
  a.pool();
  const Label fiq_handler = emit_count_handler(a, true);
  const Image image = a.assemble();

  System sys(hp_config());
  sys.load(image);
  ClassicVic::Config vc;
  vc.irq_handler = a.label_address(irq_handler);
  vc.fiq_handler = a.label_address(fiq_handler);
  vc.fiq_is_nmi = true;  // cut through the I-bit set on IRQ entry
  ClassicVic vic(vc);
  sys.core().set_interrupt_controller(&vic);
  sys.core().reset(a.label_address(entry), sys.initial_sp());

  for (int k = 0; k < 10; ++k) {
    (void)sys.core().step();
  }
  vic.raise(ClassicVic::kIrq, sys.core().cycles());
  for (int k = 0; k < 30; ++k) {
    (void)sys.core().step();  // inside IRQ handler spin now
  }
  EXPECT_EQ(vic.active_depth(), 1u);
  vic.raise(ClassicVic::kFiq, sys.core().cycles());
  for (int k = 0; k < 40; ++k) {
    (void)sys.core().step();
  }
  // FIQ completed while IRQ still active underneath.
  EXPECT_EQ(read_mailbox(sys), 1u);
  EXPECT_EQ(vic.active_depth(), 1u);
  for (int k = 0; k < 2000 && vic.active_depth() != 0; ++k) {
    (void)sys.core().step();
  }
  EXPECT_EQ(vic.active_depth(), 0u);
}

// ----- Ivc ------------------------------------------------------------------------

struct IvcFixture {
  System sys;
  Ivc ivc;
  std::uint32_t entry = 0;

  explicit IvcFixture(Assembler& a, Label entry_label, Label handler,
                      unsigned lines = 4,
                      const SystemBuilder& builder = mcu_config())
      : sys(builder), ivc(make_config(lines)) {
    const Image image = a.assemble();
    sys.load(image);
    entry = a.label_address(entry_label);
    // Vector table in SRAM: all lines point at `handler`.
    for (unsigned k = 0; k < lines; ++k) {
      const std::uint32_t v = a.label_address(handler);
      const std::uint8_t bytes[4] = {
          static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
          static_cast<std::uint8_t>(v >> 16),
          static_cast<std::uint8_t>(v >> 24)};
      ACES_CHECK(sys.bus().load_image(vector_table() + 4 * k, bytes, 4));
    }
    sys.core().set_interrupt_controller(&ivc);
    sys.core().reset(entry, sys.initial_sp());
  }

  static std::uint32_t vector_table() { return kSramBase + 0x40; }
  static Ivc::Config make_config(unsigned lines) {
    Ivc::Config c;
    c.vector_table = vector_table();
    c.lines = lines;
    return c;
  }
};

TEST(IvcTest, HardwareStackingPreservesCallerSaved) {
  // Handler deliberately trashes r0-r3 and r12; main loop must not notice.
  Assembler a(Encoding::b32, kFlashBase);
  const Label entry = a.bound_label();
  a.ins(ins_mov_imm(r1, 111, SetFlags::any));
  a.ins(ins_mov_imm(r2, 222, SetFlags::any));
  const Label top = a.bound_label();
  a.ins(ins_rri(Op::add, r0, r0, 1, SetFlags::any));
  a.b(top);
  a.pool();
  const Label handler = a.bound_label();
  a.ins(ins_mov_imm(r1, 9, SetFlags::any));
  a.ins(ins_mov_imm(r2, 9, SetFlags::any));
  a.ins(ins_mov_imm(r3, 9, SetFlags::any));
  a.load_literal(r3, kMailbox);
  a.ins(ins_mov_imm(r2, 5, SetFlags::any));
  a.ins(ins_ldst_imm(Op::str, r2, r3, 0));
  a.ins(ins_ret());
  a.pool();

  IvcFixture f(a, entry, handler);
  f.ivc.enable_line(1, 32);
  for (int k = 0; k < 20; ++k) {
    (void)f.sys.core().step();
  }
  f.ivc.raise(1, f.sys.core().cycles());
  for (int k = 0; k < 100; ++k) {
    (void)f.sys.core().step();
  }
  EXPECT_EQ(f.sys.bus().read(kMailbox, 4, mem::Access::read, 0).value, 5u);
  EXPECT_EQ(f.sys.core().reg(r1), 111u);  // restored by unstacking
  EXPECT_EQ(f.sys.core().reg(r2), 222u);
  EXPECT_EQ(f.ivc.stats().entries, 1u);
  EXPECT_EQ(f.ivc.stats().returns, 1u);
  EXPECT_EQ(f.ivc.stats().tail_chains, 0u);
}

TEST(IvcTest, TailChainingSkipsUnstackRestack) {
  Assembler a(Encoding::b32, kFlashBase);
  const Label entry = a.bound_label();
  emit_busy_loop(a);
  a.pool();
  const Label handler = emit_count_handler(a, /*software_save=*/false);
  IvcFixture f(a, entry, handler);
  f.ivc.enable_line(1, 32);
  f.ivc.enable_line(2, 40);
  for (int k = 0; k < 10; ++k) {
    (void)f.sys.core().step();
  }
  // Raise both: the second should be tail-chained after the first handler.
  f.ivc.raise(1, f.sys.core().cycles());
  f.ivc.raise(2, f.sys.core().cycles());
  for (int k = 0; k < 300; ++k) {
    (void)f.sys.core().step();
  }
  EXPECT_EQ(f.sys.bus().read(kMailbox, 4, mem::Access::read, 0).value, 2u);
  EXPECT_EQ(f.ivc.stats().entries, 2u);
  EXPECT_EQ(f.ivc.stats().tail_chains, 1u);
  EXPECT_EQ(f.ivc.stats().returns, 1u);  // only the last return unstacks
}

TEST(IvcTest, PriorityNesting) {
  Assembler a(Encoding::b32, kFlashBase);
  const Label entry = a.bound_label();
  emit_busy_loop(a);
  a.pool();
  // Low-priority handler spins long enough to be preempted.
  const Label slow_handler = a.bound_label();
  a.ins(ins_mov_imm(r0, 100, SetFlags::any));
  const Label spin = a.bound_label();
  a.ins(ins_rri(Op::sub, r0, r0, 1, SetFlags::yes));
  a.b(spin, Cond::ne);
  a.ins(ins_ret());
  a.pool();

  const Image image = a.assemble();
  System sys(mcu_config());
  sys.load(image);
  Ivc::Config c;
  c.vector_table = kSramBase + 0x40;
  c.lines = 4;
  Ivc ivc(c);
  // Line 1 -> slow handler (prio 64); line 2 -> fast count handler... both
  // share slow handler here; we only watch depths.
  for (unsigned k = 0; k < 4; ++k) {
    const std::uint32_t v = a.label_address(slow_handler);
    const std::uint8_t bytes[4] = {
        static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
        static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
    ACES_CHECK(sys.bus().load_image(c.vector_table + 4 * k, bytes, 4));
  }
  ivc.enable_line(1, 64);
  ivc.enable_line(2, 16);  // more urgent
  sys.core().set_interrupt_controller(&ivc);
  sys.core().reset(a.label_address(entry), sys.initial_sp());

  for (int k = 0; k < 10; ++k) {
    (void)sys.core().step();
  }
  ivc.raise(1, sys.core().cycles());
  for (int k = 0; k < 20; ++k) {
    (void)sys.core().step();
  }
  EXPECT_EQ(ivc.active_depth(), 1u);
  ivc.raise(2, sys.core().cycles());
  for (int k = 0; k < 5; ++k) {
    (void)sys.core().step();
  }
  EXPECT_EQ(ivc.active_depth(), 2u);  // nested
  EXPECT_EQ(ivc.stats().preemptions, 1u);
  for (int k = 0; k < 3000 && ivc.active_depth() != 0; ++k) {
    (void)sys.core().step();
  }
  EXPECT_EQ(ivc.active_depth(), 0u);
}

TEST(IvcTest, EqualPriorityDoesNotPreempt) {
  Assembler a(Encoding::b32, kFlashBase);
  const Label entry = a.bound_label();
  emit_busy_loop(a);
  a.pool();
  const Label handler = a.bound_label();
  a.ins(ins_mov_imm(r0, 50, SetFlags::any));
  const Label spin = a.bound_label();
  a.ins(ins_rri(Op::sub, r0, r0, 1, SetFlags::yes));
  a.b(spin, Cond::ne);
  a.ins(ins_ret());
  a.pool();
  IvcFixture f(a, entry, handler);
  f.ivc.enable_line(1, 32);
  f.ivc.enable_line(2, 32);
  for (int k = 0; k < 10; ++k) {
    (void)f.sys.core().step();
  }
  f.ivc.raise(1, f.sys.core().cycles());
  for (int k = 0; k < 20; ++k) {
    (void)f.sys.core().step();
  }
  f.ivc.raise(2, f.sys.core().cycles());
  for (int k = 0; k < 20; ++k) {
    (void)f.sys.core().step();
  }
  EXPECT_EQ(f.ivc.active_depth(), 1u);  // no preemption at equal priority
  EXPECT_EQ(f.ivc.stats().preemptions, 0u);
}

TEST(IvcTest, PrimaskBlocksAllButNmi) {
  Assembler a(Encoding::b32, kFlashBase);
  const Label entry = a.bound_label();
  Instruction cpsid;
  cpsid.op = Op::cps;
  cpsid.uses_imm = true;
  cpsid.imm = 1;
  a.ins(cpsid);
  emit_busy_loop(a);
  a.pool();
  const Label handler = emit_count_handler(a, false);
  const Image image = a.assemble();

  System sys(mcu_config());
  sys.load(image);
  Ivc::Config c;
  c.vector_table = kSramBase + 0x40;
  c.lines = 4;
  c.nmi_line = 3;
  Ivc ivc(c);
  for (unsigned k = 0; k < 4; ++k) {
    const std::uint32_t v = a.label_address(handler);
    const std::uint8_t bytes[4] = {
        static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
        static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
    ACES_CHECK(sys.bus().load_image(c.vector_table + 4 * k, bytes, 4));
  }
  ivc.enable_line(1, 32);
  sys.core().set_interrupt_controller(&ivc);
  sys.core().reset(a.label_address(entry), sys.initial_sp());

  for (int k = 0; k < 10; ++k) {
    (void)sys.core().step();
  }
  ivc.raise(1, sys.core().cycles());
  for (int k = 0; k < 50; ++k) {
    (void)sys.core().step();
  }
  EXPECT_EQ(read_mailbox(sys), 0u);  // PRIMASK blocks it
  ivc.raise(3, sys.core().cycles());  // NMI line
  for (int k = 0; k < 100; ++k) {
    (void)sys.core().step();
  }
  EXPECT_GE(read_mailbox(sys), 1u);  // NMI lands regardless
}

TEST(IvcTest, WfiWakesOnInterrupt) {
  Assembler a(Encoding::b32, kFlashBase);
  const Label entry = a.bound_label();
  Instruction wfi;
  wfi.op = Op::wfi;
  a.ins(wfi);
  const Label after = a.bound_label();
  emit_busy_loop(a);
  a.pool();
  const Label handler = emit_count_handler(a, false);
  (void)after;
  IvcFixture f(a, entry, handler);
  f.ivc.enable_line(1, 32);
  // Step into wfi; core idles.
  for (int k = 0; k < 5; ++k) {
    (void)f.sys.core().step();
  }
  EXPECT_TRUE(f.sys.core().waiting_for_interrupt());
  const std::uint64_t idle_start = f.sys.core().instructions();
  for (int k = 0; k < 10; ++k) {
    (void)f.sys.core().step();
  }
  EXPECT_EQ(f.sys.core().instructions(), idle_start);  // no insns retired
  f.ivc.raise(1, f.sys.core().cycles());
  for (int k = 0; k < 100; ++k) {
    (void)f.sys.core().step();
  }
  EXPECT_EQ(read_mailbox(f.sys), 1u);
  EXPECT_FALSE(f.sys.core().waiting_for_interrupt());
}

TEST(IvcTest, HookThatInvalidatesDecodesStillPollsItsBoundary) {
  // A cycle hook that drops every cached decode (what a fault injector's
  // upset does) and raises a line at the same boundary: each tier must
  // still poll that boundary before executing, so the superblock tier's
  // (pc, cycles) trace matches the uncached reference tier's exactly.
  using Trace = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
  const auto run = [](const SystemBuilder& builder, std::uint64_t fire_at,
                      DispatchTier want) {
    Assembler a(Encoding::b32, kFlashBase);
    const Label entry = a.bound_label();
    a.ins(ins_mov_imm(r0, 0, SetFlags::any));
    const Label top = a.bound_label();  // one 13-entry block
    for (int k = 0; k < 12; ++k) {
      a.ins(ins_rri(Op::add, r0, r0, 1, SetFlags::any));
    }
    a.b(top);
    a.pool();
    const Label handler = emit_count_handler(a, /*software_save=*/false);
    IvcFixture f(a, entry, handler, 4, builder);
    EXPECT_EQ(f.sys.core().dispatch_tier(), want);
    f.ivc.enable_line(1, 32);
    Trace trace;
    bool fired = false;
    f.sys.core().set_cycle_hook([&](std::uint64_t cycles) {
      trace.emplace_back(f.sys.core().pc(), cycles);
      if (!fired && cycles >= fire_at) {
        fired = true;
        f.sys.core().invalidate_decoded();
        f.ivc.raise(1, cycles);
      }
    });
    (void)f.sys.core().run(400);
    EXPECT_EQ(f.ivc.stats().entries, 1u);
    if (want == DispatchTier::superblock) {
      EXPECT_GT(f.sys.core().jit_stats().block_instructions, 0u);
    }
    return trace;
  };
  // 1-cycle flash: the fetch regime superblocks may chain in.
  const SystemBuilder fast = mcu_config().flash_wait(1);
  const SystemBuilder uncached =
      mcu_config().flash_wait(1).dispatch_tier(DispatchTier::off);
  for (std::uint64_t fire_at = 20; fire_at < 200; fire_at += 7) {
    EXPECT_EQ(run(fast, fire_at, DispatchTier::superblock),
              run(uncached, fire_at, DispatchTier::off))
        << "fire_at " << fire_at;
  }
}

// ----- Restartable LDM (§3.1.2) ------------------------------------------------

TEST(RestartableLdm, BoundsInterruptLatency) {
  // A long ldm from slow flash: without restartable transfers the pending
  // interrupt waits for the whole instruction; with them it preempts after
  // the current beat and the ldm restarts afterwards with correct results.
  const auto build = [](bool restartable) {
    Assembler a(Encoding::w32, kFlashBase);
    const Label entry = a.bound_label();
    a.load_literal(r0, kFlashBase + 0x400);  // slow source: flash data
    const Label top = a.bound_label();
    Instruction ldm;
    ldm.op = Op::ldm;
    ldm.rn = r0;
    ldm.reglist = 0x0FF0;  // r4-r11: 8 transfers
    a.ins(ldm);
    a.b(top);
    a.pool();
    const Label handler = emit_count_handler(a, true);
    const Image image = a.assemble();

    const SystemBuilder cfg = hp_config()
                                  .restartable_ldm(restartable)
                                  .flash_wait(12);  // painful random access
    auto sys = std::make_unique<System>(cfg);
    sys->load(image);
    return std::tuple{std::move(sys), a.label_address(handler),
                      a.label_address(entry)};
  };

  std::uint64_t latency[2] = {0, 0};
  std::uint64_t restarts[2] = {0, 0};
  for (const bool restartable : {false, true}) {
    auto [sys, handler_addr, entry_addr] = build(restartable);
    ClassicVic::Config vc;
    vc.irq_handler = handler_addr;
    ClassicVic vic(vc);
    sys->core().set_interrupt_controller(&vic);
    sys->core().reset(entry_addr, sys->initial_sp());
    for (int k = 0; k < 40; ++k) {
      (void)sys->core().step();
    }
    // Assert the line at an exact cycle chosen to land between two beats
    // of the in-flight ldm (each flash beat is ~12 cycles).
    const std::uint64_t raise_at = sys->core().cycles() + 30;
    bool raised = false;
    Core& core = sys->core();
    core.set_cycle_hook([&vic, &raised, raise_at](std::uint64_t now) {
      if (!raised && now >= raise_at) {
        raised = true;
        vic.raise(ClassicVic::kIrq, now);
      }
    });
    for (int k = 0; k < 400; ++k) {
      (void)sys->core().step();
    }
    ASSERT_EQ(vic.latencies(ClassicVic::kIrq).size(), 1u)
        << "restartable=" << restartable;
    latency[restartable ? 1 : 0] = vic.latencies(ClassicVic::kIrq)[0];
    restarts[restartable ? 1 : 0] = sys->core().stats().ldm_restarts;
    // Program still behaves (mailbox got its increment).
    EXPECT_EQ(sys->bus().read(kMailbox, 4, mem::Access::read, 0).value, 1u);
  }
  EXPECT_GT(restarts[1], 0u);
  EXPECT_EQ(restarts[0], 0u);
  // The restartable configuration must strictly reduce worst-observed
  // latency (the paper's predictability claim).
  EXPECT_LT(latency[1], latency[0]);
}

}  // namespace
}  // namespace aces::cpu
