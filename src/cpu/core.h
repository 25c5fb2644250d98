// The UC32 core: decode/execute engine shared by both modeled processors.
//
// A Core is configured with an encoding (W32 / N16 / B32), a timing profile
// (timings.h), instruction and data memory ports, and optionally an MPU and
// an interrupt controller. The high-performance processor of §3.1 is a Core
// with Encoding::w32|n16 + legacy_hp timings + ClassicVic (+ caches on its
// ports); the microcontroller of §3.2 is a Core with Encoding::b32 +
// modern_mcu timings + Ivc (+ bit-band on its bus).
//
// One definition of each instruction serves every dispatch tier (see
// DispatchTier): instruction semantics live in cpu/semantics.h, called by
// execute() and by the superblock handlers alike; fetch() is the one
// fetch-and-decode path; attend_boundary() is the one hook → WFI gate →
// interrupt poll sequence between instructions.
//
// Exception-return convention: entering an exception sets lr to a magic
// value >= kExcReturnBase; executing bx/pop into such an address hands
// control to the interrupt controller, which restores state (mirrors the
// ARM EXC_RETURN mechanism).
#ifndef ACES_CPU_CORE_H
#define ACES_CPU_CORE_H

#include <array>
#include <cstdint>
#include <functional>
#include <optional>

#include "cpu/code_cache.h"
#include "cpu/timings.h"
#include "isa/codec.h"
#include "isa/isa.h"
#include "mem/mpu.h"
#include "mem/port.h"

namespace aces::cpu {

class InterruptController;
class FlashPatchUnit;

inline constexpr std::uint32_t kExcReturnBase = 0xFFFF'FF00u;
// Branching here ends the program (reset() plants it in lr, so a bare
// `bx lr` from the entry function exits cleanly with r0 as status).
inline constexpr std::uint32_t kExitReturn = 0xFFFF'FFE0u;

enum class HaltReason : std::uint8_t {
  none,          // still running
  exited,        // svc #0 — normal program exit, r0 = status
  breakpoint,    // bkpt executed (no debugger attached)
  fault,         // unhandled memory/MPU fault
  invalid_insn,  // undecodable opcode reached
  insn_limit,    // run() budget exhausted
};

struct CoreFault {
  mem::Fault kind = mem::Fault::none;
  std::uint32_t address = 0;
  std::uint32_t pc = 0;
  mem::Access access = mem::Access::read;
};

// Host-side dispatch speed tier. All tiers retire bit-identical
// (pc, cycles) traces — the knob only trades host work for fidelity of
// nothing; the three-way differential fuzzer proves it.
//   off        — decode from scratch every step (the reference tier).
//   per_insn   — decoded-instruction cache, one dispatch per step.
//   superblock — chain decoded entries into straight-line superblocks and
//                run them through a threaded-dispatch loop — on state-free
//                fetch timing and on flash streamers alike, the latter
//                charged inline per entry — falling back to per_insn
//                wherever formation is unsafe (I-cache fronted fetch,
//                MPU-guarded memory, IT-block entry) or a block was
//                invalidated.
enum class DispatchTier : std::uint8_t { off, per_insn, superblock };

struct CoreConfig {
  isa::Encoding encoding = isa::Encoding::b32;
  CoreTimings timings = CoreTimings::modern_mcu();
  // §3.1.2: allow a pending interrupt to abandon and later restart an
  // in-flight ldm/stm instead of waiting for every transfer (and miss).
  bool restartable_ldm = false;
  // Initial privilege (OSEK kernels run tasks unprivileged).
  bool privileged = true;
  // Requested speed tier (`off` is the uncached reference the differential
  // tests compare the cached tiers against); clamped from superblock to
  // per_insn behind an ifetch port that interposes timing of its own (an
  // I-cache), where no block could form.
  DispatchTier dispatch_tier = DispatchTier::superblock;
};

class Core {
 public:
  Core(CoreConfig config, mem::MemPort& ifetch, mem::MemPort& data);

  // ----- wiring -----
  void set_mpu(mem::Mpu* mpu) {
    mpu_ = mpu;
    invalidate_decoded();  // cached fetch checks were validated without it
  }
  void set_interrupt_controller(InterruptController* intc) { intc_ = intc; }
  void set_flash_patch(FlashPatchUnit* fpb) {
    fpb_ = fpb;
    invalidate_decoded();
  }
  // Handler for MPU/bus faults; without one, a fault halts the core.
  void set_fault_handler(std::uint32_t pc) {
    fault_handler_pc_ = pc;
    has_fault_handler_ = true;
  }
  // Environment callback invoked with the current cycle count at every
  // instruction boundary AND between ldm/stm transfer beats. Experiments
  // use it to assert interrupt lines at exact cycle times — which is what
  // makes mid-instruction arrival (the §3.1.2 scenario) reachable in an
  // instruction-atomic simulator.
  using CycleHook = std::function<void(std::uint64_t)>;
  void set_cycle_hook(CycleHook hook) { cycle_hook_ = std::move(hook); }

  // ----- control -----
  void reset(std::uint32_t entry_pc, std::uint32_t initial_sp);
  // Executes one instruction (or takes one interrupt). Returns false when
  // halted.
  bool step();
  // Runs until halt or the instruction budget is exhausted.
  HaltReason run(std::uint64_t max_instructions);
  // Batch stepping for co-simulation slices: runs until halt, the (relative)
  // instruction budget, the (absolute) cycle limit, or a WFI with no
  // deliverable interrupt. Returns insn_limit for an exhausted budget, the
  // halt reason on halt, and none otherwise (cycle limit reached or idle in
  // WFI — callers distinguish via waiting_for_interrupt()). Semantically
  // identical to a step() loop with the same guards; the superblock tier
  // makes it fast by staying inside block dispatch between boundaries.
  HaltReason run_chunk(std::uint64_t max_instructions,
                       std::uint64_t cycle_limit);

  // ----- state access -----
  [[nodiscard]] std::uint32_t reg(isa::Reg r) const { return regs_[r]; }
  void set_reg(isa::Reg r, std::uint32_t v) { regs_[r] = v; }
  [[nodiscard]] std::uint32_t pc() const { return regs_[isa::pc]; }
  [[nodiscard]] const isa::Flags& flags() const { return flags_; }
  void set_flags(const isa::Flags& f) { flags_ = f; }
  [[nodiscard]] bool privileged() const { return privileged_; }
  void set_privileged(bool p) { privileged_ = p; }
  [[nodiscard]] bool interrupts_enabled() const { return irq_enabled_; }
  void set_interrupts_enabled(bool e) { irq_enabled_ = e; }
  [[nodiscard]] bool waiting_for_interrupt() const { return wfi_; }
  void clear_wait() { wfi_ = false; }

  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  [[nodiscard]] std::uint64_t instructions() const { return insns_; }
  void add_cycles(std::uint64_t c) { cycles_ += c; }

  [[nodiscard]] HaltReason halt_reason() const { return halt_; }
  [[nodiscard]] const CoreFault& fault_info() const { return fault_info_; }
  [[nodiscard]] const CoreConfig& config() const { return config_; }

  // Current instruction address while inside execute() (for diagnostics).
  [[nodiscard]] std::uint32_t current_pc() const { return cur_pc_; }

  // ----- used by interrupt controllers -----
  // Pushes/pops one word on the active stack through the data port,
  // charging cycles. Returns false on a (fatal) stack fault.
  bool push_word(std::uint32_t value);
  bool pop_word(std::uint32_t* value);
  // Reads a vector-table entry (a code address) through the data port.
  [[nodiscard]] std::optional<std::uint32_t> read_vector(std::uint32_t addr);
  // Clears any in-progress IT block (exception entry kills predication).
  void clear_it_state() { it_remaining_ = 0; it_pos_ = 0; }
  // Packs/restores the program status (NZCV, privilege, interrupt enable,
  // IT state) — what real hardware banks in an xPSR across exceptions.
  [[nodiscard]] std::uint32_t pack_psr() const;
  void restore_psr(std::uint32_t psr);

  struct Stats {
    std::uint64_t instructions = 0;
    std::uint64_t taken_branches = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t predicated_skips = 0;
    std::uint64_t ldm_restarts = 0;  // §3.1.2 restartable ldm/stm abandons
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  // ----- code cache (decode lines + superblocks) -----
  // The core's code cache, or nullptr on the uncached tier. It is also the
  // bus write snoop System wires up for host pokes and image reloads.
  [[nodiscard]] CodeCache* code_cache() { return code_ ? &*code_ : nullptr; }
  // The tier actually running (the config request, clamped).
  [[nodiscard]] DispatchTier dispatch_tier() const { return tier_; }
  // Drops every cached decode and superblock (used by the fault-injector
  // upset hook and anything else that mutates code behind the memory
  // system's back).
  void invalidate_decoded() {
    if (code_) {
      code_->invalidate_all();
    }
  }

  // Speed-tier counters: the code cache's (all zero on the uncached tier)
  // and the mean formed block length.
  struct JitStats : CodeCache::Stats {
    double avg_block_length = 0.0;  // entries per formed block
  };
  [[nodiscard]] JitStats jit_stats() const;

 private:
  // How fetch() treats a failure and the ifetch port.
  //   run    — architectural fetch: a breakpoint, fault or undecodable
  //            opcode halts the core or takes the fault.
  //   probe  — superblock formation look-ahead: failures leave the core
  //            untouched, and a read is issued only after the port priced
  //            it state-free (the observed cost must match that price).
  //            A read the port cannot price is peeked from the flash
  //            streamer covering it instead — a real read would advance
  //            the streamer and change guest cycles — and *replay says how
  //            many streamer reads the entry issues when it runs.
  //   replay — decode-cache hit: re-issue the cached instruction's reads
  //            (*replay says how many) so stateful fetch timing advances
  //            exactly as an uncached fetch would; no lookup, no check, no
  //            decode.
  enum class FetchMode : std::uint8_t { run, probe, replay };
  // The one fetch path of every tier: FPB patch lookup, MPU fetch check,
  // the unit read, the second-halfword read of a 32-bit instruction in a
  // halfword stream, and the decode. *cycles receives the fetch cost (also
  // on a failed run fetch, which still charges the reads it issued). On
  // success *replay says how a cached copy reproduces that cost: `fixed`
  // for FPB patch RAM and for reads the port priced state-free (asked
  // before each read whenever a decode cache could keep the answer), else
  // one or two re-issued reads (streamer reads, for a probe).
  bool fetch(std::uint32_t pc, FetchMode mode, Decoded* out,
             std::uint32_t* cycles, FetchReplay* replay);
  void execute(const Decoded& d, std::uint32_t* exec_cycles);

  // Boundary attention for every tier (step, run_chunk and the superblock
  // dispatcher's interior boundaries): cycle hook (once per instruction
  // boundary), then the WFI gate, then the interrupt poll. False when
  // nothing may execute here: asleep with nothing deliverable, or halted
  // by the poll.
  bool attend_boundary();
  // One instruction (or fault/handler entry), with no boundary attention:
  // the caller has already attended this boundary. The per-instruction
  // tier's whole body.
  void step_insn();

  // Superblock tier (superblock.cpp). run_span executes from the current pc
  // through block dispatch until a limit, an invalidation, a halt, or a
  // departure from straight-line code, servicing every entry boundary's
  // attention (hook/poll) itself; on any bail-out it retires at least one
  // instruction via step_insn() so callers always make progress. ilimit is
  // an absolute insns_ bound, climit an absolute cycles_ bound.
  void run_span(std::uint64_t ilimit, std::uint64_t climit);
  // Whether this boundary goes to run_span: on the superblock tier, unless
  // the pc holds a negative marker (then it costs one lookup, not a span
  // entry) and no parked block cursor may resume there.
  [[nodiscard]] bool takes_span() {
    return tier_ == DispatchTier::superblock &&
           (sb_resume_block_ != nullptr ||
            !code_->marked_unformable(regs_[isa::pc], privileged_));
  }
  // Builds and installs the superblock starting at `start_pc`, or a
  // negative marker (no entries) when fewer than two entries chain.
  CodeCache::Block* form_superblock(std::uint32_t start_pc);
  // True when [addr, addr + size) lies in the flash streamer fstream_
  // covers, re-probing the ifetch port when addr is outside that window.
  bool streamer_covers(std::uint32_t addr, std::uint32_t size);

  // Memory helpers: MPU check + data port access; sets pending fault.
  bool mem_read(std::uint32_t addr, unsigned size, std::uint32_t* value,
                std::uint32_t* cycles, bool sign_extend, unsigned ext_bits);
  bool mem_write(std::uint32_t addr, unsigned size, std::uint32_t value,
                 std::uint32_t* cycles);
  // Tries to (re)point dspan_ at the DirectSpan covering `addr`; updates
  // the negative window on a mapped-but-declined device. False: take the
  // virtual path.
  bool acquire_data_span(std::uint32_t addr);

  void do_fault(mem::Fault kind, std::uint32_t addr, mem::Access access);
  void halt(HaltReason reason) { halt_ = reason; }

  // Flag helpers (inline: both execution tiers sit on them).
  void set_nz(std::uint32_t result) {
    flags_.n = (result >> 31) != 0;
    flags_.z = result == 0;
  }
  std::uint32_t add_with_carry(std::uint32_t a, std::uint32_t b, bool carry_in,
                               bool set_flags) {
    const std::uint64_t u =
        static_cast<std::uint64_t>(a) + b + (carry_in ? 1 : 0);
    const std::int64_t s =
        static_cast<std::int64_t>(static_cast<std::int32_t>(a)) +
        static_cast<std::int32_t>(b) + (carry_in ? 1 : 0);
    const auto r = static_cast<std::uint32_t>(u);
    if (set_flags) {
      set_nz(r);
      flags_.c = (u >> 32) != 0;
      flags_.v = s != static_cast<std::int32_t>(r);
    }
    return r;
  }

  // Instruction semantics, defined in cpu/semantics.h: each one applies an
  // instruction's whole effect on registers and flags. execute() and every
  // specialized superblock handler call them, passing `op` (a constant in
  // the handlers) and the effective flag-setting.
  [[nodiscard]] std::uint32_t operand2(const isa::Instruction& i) const;
  void exec_arith(isa::Op op, const isa::Instruction& i, bool set);
  void exec_logical(isa::Op op, const isa::Instruction& i, bool set);
  void exec_shift(const isa::Instruction& i, bool set);
  void exec_bit_op(isa::Op op, const isa::Instruction& i);
  std::uint32_t exec_mul(const isa::Instruction& i, bool set);  // cycles
  [[nodiscard]] bool cbz_taken(const isa::Instruction& i) const;  // cbz/cbnz
  // The taken path of every direct and indirect branch (no IT clear, no
  // cycle charge: branch_to and the superblock handlers add those).
  void take_branch(std::uint32_t target);
  // Load/store effective address; `pc` is the instruction's own address.
  [[nodiscard]] std::uint32_t address(isa::AddrMode mode,
                                      const isa::Instruction& i,
                                      std::uint32_t pc) const;

  // IT block bookkeeping (B32).
  [[nodiscard]] bool it_active() const { return it_remaining_ > 0; }
  void advance_it() {
    if (it_remaining_ > 0) {
      ++it_pos_;
      --it_remaining_;
    }
  }
  void start_it(const isa::Instruction& it);
  // Resolves target and transfers control (handles exception-return magic).
  void branch_to(std::uint32_t target);

  [[nodiscard]] std::uint32_t mul_cycles(std::uint32_t operand) const;
  [[nodiscard]] std::uint32_t div_cycles(std::uint32_t dividend) const;

  CoreConfig config_;
  const isa::Codec& codec_;
  // Bytes of the first (or only) read of every instruction fetch: a word
  // for W32, a halfword for the 16/32-bit streams.
  const unsigned fetch_unit_;
  mem::MemPort& ifetch_;
  mem::MemPort& data_;
  // The ports' buses when the ports add no timing of their own (else
  // nullptr): fetch pricing, streamers and data spans are asked of them.
  mem::Bus* const ibus_;
  mem::Bus* const dbus_;
  const DispatchTier tier_;
  mem::Mpu* mpu_ = nullptr;
  InterruptController* intc_ = nullptr;
  FlashPatchUnit* fpb_ = nullptr;

  std::array<std::uint32_t, 16> regs_{};
  isa::Flags flags_;
  bool privileged_ = true;
  bool irq_enabled_ = true;
  bool wfi_ = false;

  // IT state: per-slot conditions, consumed front-first.
  std::array<isa::Cond, 4> it_conds_{};
  std::uint8_t it_pos_ = 0;
  std::uint8_t it_remaining_ = 0;

  std::uint32_t cur_pc_ = 0;  // address of the instruction in flight
  std::uint64_t cycles_ = 0;
  std::uint64_t insns_ = 0;
  HaltReason halt_ = HaltReason::none;
  CoreFault fault_info_;
  std::uint32_t fault_handler_pc_ = 0;
  bool has_fault_handler_ = false;
  CycleHook cycle_hook_;

  // ----- fast paths -----
  std::optional<CodeCache> code_;  // absent on the uncached tier
  // Resume cursor: where block execution bailed on an instruction/cycle
  // limit, so the next span re-enters mid-block instead of missing. Valid
  // only while (gen, seq, pc, privilege) still match.
  CodeCache::Block* sb_resume_block_ = nullptr;
  std::uint32_t sb_resume_seq_ = 0;
  std::uint32_t sb_resume_idx_ = 0;
  std::uint32_t fpb_version_seen_ = 0;
  std::uint32_t mpu_version_seen_ = 0;
  // The ifetch port's flash streamer for the last window formation asked
  // about (flash == nullptr: none there).
  mem::FetchStreamer fstream_;
  // The streamer every streamed superblock entry runs: the first one
  // formation met (code streamed from a second flash stays per-insn).
  mem::FetchStreamer sb_streamer_;
  // Cached data-side DirectSpan (size 0: none) plus a negative window for
  // the last mapped region that declined (peripherals), so the hot
  // load/store path settles to raw host accesses with zero virtual calls.
  mem::DirectSpan dspan_;
  std::uint32_t nospan_base_ = 0;
  std::uint32_t nospan_size_ = 0;

  Stats stats_;
};

}  // namespace aces::cpu

#endif  // ACES_CPU_CORE_H
