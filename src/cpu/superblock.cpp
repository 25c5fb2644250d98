// Superblock tier: straight-line runs of decoded instructions executed by a
// threaded-dispatch loop (core.cpp's per-instruction tier is the fallback).
// This file holds formation (Core::form_superblock) and the executor
// (Core::run_span); the blocks live in the code cache (code_cache.h, which
// also states the invalidation contract).
//
// A superblock chains consecutive decode-line-grade entries starting at a
// block-entry pc and ending at the first terminator: any branch, any op that
// can leave the straight line (svc/bkpt/wfi, pop/ldm touching pc, any
// rd==pc writer), a 1 KiB page boundary, or the length cap. Every entry
// records how to reproduce its *modeled* fetch cost, so block execution
// charges exactly the cycles the per-instruction tier would — the tiers are
// bit-identical in (pc, cycles) traces and flash streamer statistics,
// proven by the three-way differential fuzzer.
//
// Formation accepts every pc whose fetch cost the core can reproduce
// exactly without the port: state-free fetches (Bus::fixed_fetch_cost
// answers: SRAM, flash in its 1-cycle or prefetch-off regimes, FPB patch
// RAM) are charged their fixed price, and streamer-backed flash
// (Bus::fetch_streamer answers: the default wait-stated regimes) is
// charged by running the flash's own streamer protocol inline at each
// entry, with one or two reads exactly as the per-instruction tier issues
// them. Behind an I-cache fronted ifetch port nothing qualifies, so the
// core does not build this tier at all (the request clamps to per_insn).
// Elsewhere — TCM under a fault injector — a pc that fails formation holds
// a negative marker in its block slot and runs per-instruction, replaying
// fetches through the port so stateful timing advances exactly.
//
// Handlers share the per-instruction tier's semantics rather than copying
// them: each specialized handler is the predication gate, a call into
// cpu/semantics.h with a constant op, and the entry's cycle charge.
// Interrupts are polled at every entry boundary, gated by
// InterruptController::dispatch_needed(), so IRQ delivery instants are
// unchanged from the per-instruction tier.
//
// Dispatch is a computed-goto loop on GNU-compatible compilers (built with
// -fno-gcse so GCC does not merge the indirect jumps back into one —
// clang needs no flag). Define ACES_SB_SWITCH_DISPATCH to force the
// portable switch fallback; both compile to the same handler bodies.

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <limits>

#include "cpu/code_cache.h"
#include "cpu/core.h"
#include "cpu/fpb.h"
#include "cpu/hostmem.h"
#include "cpu/intc.h"
#include "cpu/semantics.h"
#include "mem/flash.h"

namespace aces::cpu {

using hostmem::load_le;
using hostmem::span_covers;
using hostmem::store_le;
using isa::AddrMode;
using isa::Cond;
using isa::Instruction;
using isa::Op;
using isa::SetFlags;

// ----- formation -------------------------------------------------------------

namespace {

// Ops that architecturally write `rd` (rd == pc makes them terminators and
// disqualifies specialization).
bool writes_rd(Op op) {
  switch (op) {
    case Op::add:
    case Op::adc:
    case Op::sub:
    case Op::sbc:
    case Op::rsb:
    case Op::and_:
    case Op::orr:
    case Op::eor:
    case Op::bic:
    case Op::mov:
    case Op::mvn:
    case Op::lsl:
    case Op::lsr:
    case Op::asr:
    case Op::ror:
    case Op::mul:
    case Op::mla:
    case Op::sdiv:
    case Op::udiv:
    case Op::movw:
    case Op::movt:
    case Op::bfi:
    case Op::bfc:
    case Op::ubfx:
    case Op::sbfx:
    case Op::rbit:
    case Op::rev:
    case Op::rev16:
    case Op::clz:
    case Op::sxtb:
    case Op::sxth:
    case Op::uxtb:
    case Op::uxth:
    case Op::ldr:
    case Op::ldrb:
    case Op::ldrh:
    case Op::ldrsb:
    case Op::ldrsh:
    case Op::adr:
      return true;
    default:
      return false;
  }
}

// Anything that can leave the straight line ends the block (and is included
// as its final, generic-or-not entry).
bool is_terminator(const Instruction& i) {
  switch (i.op) {
    case Op::b:
    case Op::bl:
    case Op::bx:
    case Op::cbz:
    case Op::cbnz:
    case Op::tbb:
    case Op::svc:
    case Op::bkpt:
    case Op::wfi:  // sleeps: the wfi gate only runs at span entry
      return true;
    case Op::ldm:
    case Op::pop:
      return ((i.reglist >> isa::pc) & 1u) != 0;
    default:
      return writes_rd(i.op) && i.rd == isa::pc;
  }
}

// Specialization rules: rd != pc for writers, memory classes only when no
// MPU is wired (the generic funnel performs the MPU data check), and direct
// branches only when the link-time target stays below the magic
// exception-return range. W32 conditions are fine — every specialized
// handler begins with the SB_INSN cond gate, mirroring execute()'s
// annulled-slot path (1 cycle, ++predicated_skips).
ExecClass classify(const Instruction& i, std::uint32_t pc, bool has_mpu,
                   bool* set_out) {
  *set_out = i.set_flags == SetFlags::yes;
  if (writes_rd(i.op) && i.rd == isa::pc) {
    return ExecClass::generic;
  }
  if (i.rn == isa::pc || i.rm == isa::pc) {
    // pc-reading operands (literal loads, mov rd, pc) stay generic so the
    // dispatcher does not have to materialize regs[pc] on every entry.
    return ExecClass::generic;
  }
  switch (i.op) {
    case Op::nop:
      // A conditional nop differs from an executed one only in the
      // predicated_skips counter; keep it generic so stats stay exact.
      return i.cond == Cond::al ? ExecClass::nop : ExecClass::generic;
    case Op::b:
    case Op::cbz:
    case Op::cbnz: {
      if ((sem::branch_target(pc, i.imm) & ~1u) >= kExcReturnBase) {
        return ExecClass::generic;  // magic exit/exception-return address
      }
      return i.op == Op::b ? ExecClass::branch : ExecClass::cbz;
    }
    case Op::mov:
      return ExecClass::mov;
    case Op::mvn:
      return ExecClass::mvn;
    case Op::add:
      return ExecClass::add;
    case Op::adc:
      return ExecClass::adc;
    case Op::sub:
      return ExecClass::sub;
    case Op::sbc:
      return ExecClass::sbc;
    case Op::rsb:
      return ExecClass::rsb;
    case Op::cmp:
      return ExecClass::cmp;
    case Op::cmn:
      return ExecClass::cmn;
    case Op::and_:
      return ExecClass::and_;
    case Op::orr:
      return ExecClass::orr;
    case Op::eor:
      return ExecClass::eor;
    case Op::bic:
      return ExecClass::bic;
    case Op::tst:
      return ExecClass::tst;
    case Op::teq:
      return ExecClass::teq;
    case Op::lsl:
    case Op::lsr:
    case Op::asr:
    case Op::ror:
      return ExecClass::shift;
    case Op::mul:
      return ExecClass::mul;
    case Op::movw:
      return ExecClass::movw;
    case Op::movt:
      return ExecClass::movt;
    case Op::ubfx:
      return ExecClass::ubfx;
    case Op::sxtb:
      return ExecClass::sxtb;
    case Op::sxth:
      return ExecClass::sxth;
    case Op::uxtb:
      return ExecClass::uxtb;
    case Op::uxth:
      return ExecClass::uxth;
    case Op::adr:
      return ExecClass::adr;
    case Op::ldr:
      if (!has_mpu && i.addr == AddrMode::offset_imm) return ExecClass::ldr_imm;
      if (!has_mpu && i.addr == AddrMode::offset_reg) return ExecClass::ldr_reg;
      return ExecClass::generic;
    case Op::ldrb:
      if (!has_mpu && i.addr == AddrMode::offset_imm) {
        return ExecClass::ldrb_imm;
      }
      if (!has_mpu && i.addr == AddrMode::offset_reg) {
        return ExecClass::ldrb_reg;
      }
      return ExecClass::generic;
    case Op::ldrh:
      if (!has_mpu && i.addr == AddrMode::offset_imm) {
        return ExecClass::ldrh_imm;
      }
      if (!has_mpu && i.addr == AddrMode::offset_reg) {
        return ExecClass::ldrh_reg;
      }
      return ExecClass::generic;
    case Op::str:
      if (!has_mpu && i.addr == AddrMode::offset_imm) return ExecClass::str_imm;
      if (!has_mpu && i.addr == AddrMode::offset_reg) return ExecClass::str_reg;
      return ExecClass::generic;
    case Op::strb:
      if (!has_mpu && i.addr == AddrMode::offset_imm) {
        return ExecClass::strb_imm;
      }
      if (!has_mpu && i.addr == AddrMode::offset_reg) {
        return ExecClass::strb_reg;
      }
      return ExecClass::generic;
    case Op::strh:
      if (!has_mpu && i.addr == AddrMode::offset_imm) {
        return ExecClass::strh_imm;
      }
      if (!has_mpu && i.addr == AddrMode::offset_reg) {
        return ExecClass::strh_reg;
      }
      return ExecClass::generic;
    default:
      return ExecClass::generic;
  }
}

}  // namespace

CodeCache::Block* Core::form_superblock(std::uint32_t start_pc) {
  CodeCache& cc = *code_;
  std::vector<CodeCache::Entry>& out = cc.scratch();
  out.clear();
  std::uint32_t pc = start_pc;
  // Open IT body being specialized. A body slot must be a pure in-dispatch
  // class (no execute() funnel, no memory slow path, no pc change) so the
  // dispatcher never needs live IT state mid-body; otherwise the block is
  // cut just before the IT instruction and per-insn runs the real thing.
  int it_body = 0;           // body entries still to chain
  int it_pos = 0;            // next body position (0-based)
  std::size_t it_index = 0;  // scratch index of the open body's IT entry
  std::array<isa::Cond, 4> it_conds{};
  bool terminated = false;
  while (!terminated && out.size() < CodeCache::kMaxEntries) {
    if (((pc ^ start_pc) & ~(CodeCache::kPageBytes - 1)) != 0) {
      break;  // page boundary: bounds the blast radius of one guest write
    }
    // Decode ahead without charging cycles or advancing a streamer: a valid
    // decode line already proved what a probe fetch checks (MPU fetch
    // check under this privilege, FPB miss at the current version — entry
    // gates compared versions before we got here), and a fixed one its
    // state-free cost; a replayed one still needs a streamer under it.
    CodeCache::Entry e;
    FetchReplay replay = FetchReplay::fixed;
    if (const CodeCache::Line* line = cc.line(pc);
        line != nullptr && line->privileged == privileged_ &&
        (line->replay == FetchReplay::fixed ||
         streamer_covers(pc, static_cast<std::uint32_t>(line->d.size)))) {
      e.d = line->d;
      e.fetch_cycles = line->fixed_cycles;
      replay = line->replay;
    } else if (!fetch(pc, FetchMode::probe, &e.d, &e.fetch_cycles,
                      &replay)) {
      break;
    }
    if (replay != FetchReplay::fixed) {
      if (sb_streamer_.flash == nullptr) {
        sb_streamer_ = fstream_;
      } else if (sb_streamer_.flash != fstream_.flash) {
        break;  // one streamer per core
      }
    }
    e.pc = pc;
    if (it_body > 0) {
      // Bake the slot's static condition (the SB_INSN gate applies it) and
      // the inside-IT rule that only compares write flags.
      e.d.insn.cond = it_conds[static_cast<std::size_t>(it_pos)];
      e.klass = classify(e.d.insn, pc, mpu_ != nullptr, &e.set);
      // Only the contiguous pure in-dispatch range [nop, adr] may sit in a
      // body: no generic funnel, no memory slow path, no pc change.
      if (static_cast<std::uint8_t>(e.klass) <
              static_cast<std::uint8_t>(ExecClass::nop) ||
          static_cast<std::uint8_t>(e.klass) >
              static_cast<std::uint8_t>(ExecClass::adr)) {
        it_body = -1;  // unspecializable body: cut before the IT entry
        break;
      }
      e.set = e.set && sem::is_compare(e.d.insn.op);
      e.it_info = static_cast<std::uint8_t>(++it_pos);
      --it_body;
    } else {
      terminated = is_terminator(e.d.insn);
      e.klass = classify(e.d.insn, pc, mpu_ != nullptr, &e.set);
      if (e.d.insn.op == Op::it) {
        // Snapshot the exact start_it() expansion (the core is outside any
        // IT block during formation), then rewind: the body runs on baked
        // conditions and cold paths rebuild this state when needed.
        start_it(e.d.insn);
        it_body = it_remaining_;
        it_conds = it_conds_;
        clear_it_state();
      }
      if (it_body > 0) {
        it_pos = 0;
        it_index = out.size();
        e.klass = ExecClass::it_;
        e.set = false;
      }
    }
    e.base_cycles = std::max(e.fetch_cycles, config_.timings.data_op);
    e.dispatch = static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(e.klass) +
        (replay == FetchReplay::fixed ? 0 : CodeCache::kStreamed));
    out.push_back(e);
    pc += static_cast<std::uint32_t>(e.d.size);
  }
  if (it_body != 0) {
    // Half-chained IT body (ran out of room, or a slot was rejected):
    // never leave one in a block — cut back to just before the IT.
    out.resize(it_index);
  }
  std::uint32_t end_pc = 0;
  if (out.size() < 2) {
    // Chaining one entry buys nothing over per-insn: install a negative
    // marker over the bytes formation examined (up to the failed fetch).
    out.clear();
    end_pc = start_pc + std::min(pc + 4 - start_pc,
                                 CodeCache::kMaxSpanBytes);
  } else {
    end_pc = out.back().pc + static_cast<std::uint32_t>(out.back().d.size);
  }
  return cc.install_block(start_pc, end_pc, privileged_);
}

// ----- threaded-dispatch executor --------------------------------------------

// One X per ExecClass enumerator, in declaration order (the computed-goto
// table is built from this list; the static_assert below pins the count).
#define ACES_SB_FOR_EACH_CLASS(X)                                           \
  X(generic) X(nop) X(mov) X(mvn) X(add) X(adc) X(sub) X(sbc) X(rsb)        \
  X(cmp) X(cmn) X(and_) X(orr) X(eor) X(bic) X(tst) X(teq) X(shift)         \
  X(mul) X(movw) X(movt) X(ubfx) X(sxtb) X(sxth) X(uxtb) X(uxth) X(adr)     \
  X(it_) X(branch) X(cbz)                                                   \
  X(ldr_imm) X(ldrb_imm) X(ldrh_imm) X(ldr_reg) X(ldrb_reg) X(ldrh_reg)     \
  X(str_imm) X(strb_imm) X(strh_imm) X(str_reg) X(strb_reg) X(strh_reg)

#if defined(__GNUC__) && !defined(ACES_SB_SWITCH_DISPATCH)
#define ACES_SB_THREADED 1
#define ACES_SB_DISPATCH() goto* kLabels[e->dispatch]
#else
#define ACES_SB_THREADED 0
#define ACES_SB_DISPATCH() goto dispatch_switch
#endif

// The hot instruction boundary, expanded INLINE at the end of every handler
// (not a shared label): each handler gets its own indirect-branch site, so
// a fixed entry sequence trains one BTB slot per (class, successor) pair
// instead of funneling every prediction through a single site. Cold
// outcomes leave the straight line to shared labels.
// `estop` folds the block-end and instruction-budget exits into one
// compare: done and e advance in lockstep between recomputes (every
// dispatch_entry), so e == estop fires exactly where the separate
// `e == eend || done >= istop` checks would — boundary_slow re-derives
// which. The cycle limit keeps its own compare (its distance is not
// entry-countable: entries charge variable cycles), but it is perfectly
// predicted in the common unbounded-climit case. Attentive spans pin
// estop one entry ahead so attention still precedes every entry.
#define ACES_SB_NEXT()                            \
  do {                                            \
    ++e;                                          \
    if (e == estop) {                             \
      goto boundary_slow;                         \
    }                                             \
    if (cyc >= climit) {                          \
      goto park;                                  \
    }                                             \
    ++done;                                       \
    ACES_SB_DISPATCH();                           \
  } while (0)

namespace {

// A streamed entry's fetch: the flash's streamer protocol, run exactly as
// Core::fetch's reads would — the first read (`unit` bytes) at the
// instruction's start cycle `now`, then, for a 32-bit instruction in a
// halfword stream, the second halfword at now + first. Out of line so the
// protocol is not copied into every dispatch stub.
[[gnu::noinline]] std::uint32_t stream_fetch(const mem::FetchStreamer& s,
                                             const CodeCache::Entry& e,
                                             unsigned unit, std::uint64_t now) {
  const std::uint32_t off = e.pc - s.base;
  std::uint32_t cycles = s.flash->stream_fetch(off, unit, now);
  if (static_cast<unsigned>(e.d.size) > unit) {
    cycles += s.flash->stream_fetch(off + 2, 2, now + cycles);
  }
  return cycles;
}

}  // namespace

void Core::run_span(std::uint64_t ilimit, std::uint64_t climit) {
#if ACES_SB_THREADED
#define ACES_SB_LABEL_ADDR(name) &&lbl_##name,
#define ACES_SB_STREAM_LABEL_ADDR(name) &&lbl_stream_##name,
  // Indexed by Entry::dispatch: the class handlers, then their streamed
  // stubs.
  static const void* const kLabels[] = {
      ACES_SB_FOR_EACH_CLASS(ACES_SB_LABEL_ADDR)
          ACES_SB_FOR_EACH_CLASS(ACES_SB_STREAM_LABEL_ADDR)};
#undef ACES_SB_LABEL_ADDR
#undef ACES_SB_STREAM_LABEL_ADDR
  static_assert(std::size(kLabels) == 2 * CodeCache::kStreamed,
                "kLabels must cover every ExecClass in order, twice");
#endif
  // All locals up front: the handler gotos may not jump over initialized
  // declarations at function scope.
  CodeCache& cc = *code_;
  const CoreTimings& t = config_.timings;
  CodeCache::Block* block = nullptr;
  // Entries are mutable only for the streamed stubs' per-execution fetch.
  CodeCache::Entry* e = nullptr;      // cursor (the hot induction)
  CodeCache::Entry* ents = nullptr;   // first entry (loop-back)
  CodeCache::Entry* eend = nullptr;   // one past the last entry
  CodeCache::Entry* estop = nullptr;  // next mandatory slow check
  // Span-invariant attention state. All three are host-API-owned (nothing a
  // guest instruction, device write, or the hook itself can install or
  // remove mid-span), so hoisting them keeps the interior boundary down to
  // two limit compares plus predictable tests held in registers.
  const bool hooked = static_cast<bool>(cycle_hook_);
  InterruptController* const intc = intc_;
  const bool vgates = fpb_ != nullptr || mpu_ != nullptr;
  // Hot counters live in registers between sync points; SB_SYNC() flushes
  // them back (as a delta, so `done` keeps counting monotonically against
  // `istop`) before anything outside the dispatcher — hook, poll,
  // execute(), step_insn() — can observe core state, and before returning.
  std::uint64_t cyc = cycles_;
  std::uint64_t done = 0;
  std::uint64_t flushed = 0;
  const std::uint64_t istop = ilimit - insns_;  // caller ensures insns_ < ilimit
  // A span is `attentive` when an interior boundary has real work: a cycle
  // hook, live version gates, or a pending interrupt. In a quiet span none
  // of these can appear between specialized entries (hooks and the FPB/MPU
  // are host-owned, fast-path stores only touch plain RAM), so the interior
  // boundary collapses to the two limit compares. Generic entries and polls
  // can change the pending picture, so they re-evaluate it.
  bool attentive =
      hooked || vgates || (intc != nullptr && intc->dispatch_needed());
  // Rebuilds the architectural IT state per-insn would hold at the boundary
  // before `be` (body position it_info - 1): the IT entry sits it_info
  // slots back in the same block. Cold paths only — exception stacking and
  // per-insn fallback must see the exact psr bits; the dispatcher itself
  // runs the body on conditions baked into the entries.
  const auto materialize_it = [this](const CodeCache::Entry* be) {
    start_it(be[-static_cast<std::ptrdiff_t>(be->it_info)].d.insn);
    const auto pos = static_cast<std::uint8_t>(be->it_info - 1);
    it_pos_ = pos;
    it_remaining_ = static_cast<std::uint8_t>(it_remaining_ - pos);
  };

#define SB_SYNC()                              \
  do {                                         \
    cycles_ = cyc;                             \
    const std::uint64_t d_ = done - flushed;   \
    insns_ += d_;                              \
    stats_.instructions += d_;                 \
    cc.stats().block_instructions += d_;       \
    flushed = done;                            \
  } while (0)

  // The caller (step / run_chunk) has already serviced this boundary's
  // attention (cycle hook, WFI gate, interrupt poll), so entry and cursor
  // resume dispatch directly; run_span services every *interior* boundary.
  if ((fpb_ != nullptr && fpb_->version() != fpb_version_seen_) ||
      (mpu_ != nullptr && mpu_->version() != mpu_version_seen_)) {
    step_insn();  // refreshes seen versions + flushes the code cache
    return;
  }
  if (sb_resume_block_ != nullptr) {
    CodeCache::Block* rb = sb_resume_block_;
    sb_resume_block_ = nullptr;
    if (rb->gen == cc.generation() && rb->seq == sb_resume_seq_ &&
        rb->privileged == privileged_ &&
        sb_resume_idx_ < rb->entries.size() &&
        rb->entries[sb_resume_idx_].pc == regs_[isa::pc]) {
      // Architectural state (including any IT progress) is exactly as when
      // the cursor was parked: the only code that ran in between was the
      // caller's boundary attention, and a delivered interrupt or handler
      // entry would have moved the pc.
      block = rb;
      ents = rb->entries.data();
      eend = ents + rb->entries.size();
      e = ents + sb_resume_idx_;
      if (e->it_info != 0) {
        // Parking materialized the IT state for the caller's boundary
        // attention; back in the dispatcher the baked conditions take over.
        clear_it_state();
      }
      goto dispatch_entry;
    }
  }
  if (it_active()) {
    // Blocks are formed for IT-free entry; mid-IT resume is handled by the
    // cursor path above, everything else runs per-instruction.
    step_insn();
    return;
  }
  block = cc.block(regs_[isa::pc], privileged_);
  if (block == nullptr) {
    block = form_superblock(regs_[isa::pc]);
  } else if (!block->entries.empty()) {
    ++cc.stats().block_hits;
  }
  if (block->entries.empty()) {
    // Formation just failed here and left a negative marker (the callers
    // route pcs already marked straight to step_insn).
    ++cc.stats().block_misses;
    step_insn();
    return;
  }
  // The entries vector is stable for the whole span: installs only happen
  // at span entry, and invalidation flips `gen` without touching storage.
  ents = block->entries.data();
  eend = ents + block->entries.size();
  e = ents;
  goto dispatch_entry;

boundary_slow:
  // The folded e == estop exit: untangle which underlying condition fired
  // (checked in the same order the per-entry tail used to).
  if (e == eend) {
    goto span_done;
  }
  // falls through: instruction budget, attention, or a stale estop

boundary:
  // Re-entry boundary for the in-dispatch loop-back (pc_changed): the
  // handlers themselves run the inline ACES_SB_NEXT() copy of these checks.
  if (done >= istop || cyc >= climit) {
    goto park;
  }
  if (attentive) {
    goto boundary_attend;
  }
  // falls through into dispatch

dispatch_entry:
  // regs[pc] and cur_pc_ are NOT updated per entry: the classifier rejects
  // pc-reading operands, so only the handlers that need the pc (adr,
  // branches, the generic funnel) and the exit/attention points materialize
  // it. Every return path below leaves regs[pc] exactly as the
  // per-instruction tier would.
  estop = attentive ? e + 1
                    : e + static_cast<std::ptrdiff_t>(std::min(
                              static_cast<std::uint64_t>(eend - e),
                              istop - done));
  ++done;  // counts into insns_ / instructions / block_instructions at sync
  ACES_SB_DISPATCH();

#if !ACES_SB_THREADED
dispatch_switch:
  switch (e->dispatch) {
#define ACES_SB_CASE(name)                                      \
  case static_cast<std::uint8_t>(ExecClass::name):              \
    goto lbl_##name;                                            \
  case CodeCache::kStreamed +                                   \
      static_cast<std::uint8_t>(ExecClass::name):               \
    goto lbl_stream_##name;
    ACES_SB_FOR_EACH_CLASS(ACES_SB_CASE)
#undef ACES_SB_CASE
    default:
      break;
  }
  goto lbl_generic;  // unreachable: every dispatch index has a case
#endif

// ----- streamed stubs --------------------------------------------------------
// A streamed entry dispatches to its class's stub first. The stub charges
// this execution's fetch — after the boundary's limits and attention, so
// parked or attended entries never touch the streamer — by running the
// core's flash streamer, stores it as the entry's fetch_cycles /
// base_cycles, and jumps to the class handler, which charges it like a
// fixed cost (the slow-path funnel reuses it, never re-fetching). Fixed
// entries skip the stubs and pay nothing for them.
#define ACES_SB_STREAM_STUB(name)                                       \
  lbl_stream_##name : {                                                 \
    e->fetch_cycles = stream_fetch(sb_streamer_, *e, fetch_unit_, cyc); \
    e->base_cycles = std::max(e->fetch_cycles, t.data_op);              \
  }                                                                     \
  goto lbl_##name;
  ACES_SB_FOR_EACH_CLASS(ACES_SB_STREAM_STUB)
#undef ACES_SB_STREAM_STUB

// ----- specialized handlers (rd != pc, outside IT bodies) -----
// SB_INSN opens every handler: bind the instruction and apply W32
// predication exactly like execute() — a failed condition is an annulled
// slot (base_cycles = max(fetch, data_op), ++predicated_skips, no effects).
#define SB_INSN                                                  \
  const Instruction& i = e->d.insn;                              \
  if (i.cond != Cond::al && !isa::cond_holds(i.cond, flags_)) {  \
    ++stats_.predicated_skips;                                   \
    cyc += e->base_cycles;                                   \
    ACES_SB_NEXT();                                             \
  }
// A pure register/flag handler: the gate, the shared semantic helper
// (cpu/semantics.h, with a constant op so it folds to that operation),
// the entry's base cost.
#define SB_HANDLER(name, EFFECT) \
  lbl_##name : {                 \
    SB_INSN;                     \
    EFFECT;                      \
    cyc += e->base_cycles;       \
  }                              \
  ACES_SB_NEXT();

lbl_nop : {
  cyc += e->base_cycles;
}
  ACES_SB_NEXT();

SB_HANDLER(mov, exec_logical(Op::mov, i, e->set))
SB_HANDLER(mvn, exec_logical(Op::mvn, i, e->set))
SB_HANDLER(add, exec_arith(Op::add, i, e->set))
SB_HANDLER(adc, exec_arith(Op::adc, i, e->set))
SB_HANDLER(sub, exec_arith(Op::sub, i, e->set))
SB_HANDLER(sbc, exec_arith(Op::sbc, i, e->set))
SB_HANDLER(rsb, exec_arith(Op::rsb, i, e->set))
SB_HANDLER(cmp, exec_arith(Op::cmp, i, true))
SB_HANDLER(cmn, exec_arith(Op::cmn, i, true))
SB_HANDLER(and_, exec_logical(Op::and_, i, e->set))
SB_HANDLER(orr, exec_logical(Op::orr, i, e->set))
SB_HANDLER(eor, exec_logical(Op::eor, i, e->set))
SB_HANDLER(bic, exec_logical(Op::bic, i, e->set))
SB_HANDLER(tst, exec_logical(Op::tst, i, true))
SB_HANDLER(teq, exec_logical(Op::teq, i, true))
SB_HANDLER(shift, exec_shift(i, e->set))
SB_HANDLER(movw, exec_bit_op(Op::movw, i))
SB_HANDLER(movt, exec_bit_op(Op::movt, i))
SB_HANDLER(ubfx, exec_bit_op(Op::ubfx, i))
SB_HANDLER(sxtb, exec_bit_op(Op::sxtb, i))
SB_HANDLER(sxth, exec_bit_op(Op::sxth, i))
SB_HANDLER(uxtb, exec_bit_op(Op::uxtb, i))
SB_HANDLER(uxth, exec_bit_op(Op::uxth, i))
SB_HANDLER(adr, regs_[i.rd] = sem::pc_relative(e->pc, i.imm))

lbl_mul : {
  SB_INSN;
  cyc += std::max(e->fetch_cycles, exec_mul(i, e->set));
}
  ACES_SB_NEXT();

// The IT instruction of a fully-specialized body: its whole effect (the
// per-slot conditions) is baked into the body entries, so executing it is
// pure cost. Never predicated — its cond field is the block's first
// condition, not a guard (same rule as execute()).
lbl_it_ : {
  cyc += e->base_cycles;
}
  ACES_SB_NEXT();

// ----- direct branches (classifier-checked: target < kExcReturnBase) -----
// Taken-path parity with branch_to(): take_branch(), plus the pipeline
// refill on top of the base cost. clear_it_state() is skipped — specialized
// entries never execute inside an IT block, so the IT state is already
// clear.
lbl_branch : {
  SB_INSN;  // an untaken conditional b is an annulled slot, like execute()
  take_branch(sem::branch_target(e->pc, i.imm));
  cyc += e->base_cycles + t.branch_taken_penalty;
}
  goto pc_changed;

lbl_cbz : {
  SB_INSN;
  if (cbz_taken(i)) {
    take_branch(sem::branch_target(e->pc, i.imm));
    cyc += e->base_cycles + t.branch_taken_penalty;
    goto pc_changed;
  }
  cyc += e->base_cycles;
}
  ACES_SB_NEXT();

// ----- memory fast paths (no MPU by classifier rule) -----
// A miss on the cached DirectSpan funnels the whole entry through
// execute(), which retries span acquisition and takes the virtual path.
#define SB_LOAD(SIZE, MODE)                                                \
  {                                                                        \
    SB_INSN;                                                               \
    const std::uint32_t addr = address(AddrMode::MODE, i, e->pc);          \
    if (!span_covers(dspan_, addr, (SIZE)) &&                              \
        !(acquire_data_span(addr) && span_covers(dspan_, addr, (SIZE)))) { \
      goto slow_entry;                                                     \
    }                                                                      \
    regs_[i.rd] = load_le(dspan_.data + (addr - dspan_.base), (SIZE));     \
    ++stats_.loads;                                                        \
    cyc += std::max(e->fetch_cycles, t.data_op + t.load_extra +           \
                                         dspan_.read_cycles);              \
  }                                                                        \
  ACES_SB_NEXT();

#define SB_STORE(SIZE, MODE)                                                \
  {                                                                         \
    SB_INSN;                                                                \
    const std::uint32_t addr = address(AddrMode::MODE, i, e->pc);           \
    if ((!span_covers(dspan_, addr, (SIZE)) &&                              \
         !(acquire_data_span(addr) && span_covers(dspan_, addr, (SIZE)))) || \
        !dspan_.writable) {                                                 \
      goto slow_entry;                                                      \
    }                                                                       \
    store_le(dspan_.data + (addr - dspan_.base), (SIZE), regs_[i.rd]);      \
    ++stats_.stores;                                                        \
    cyc += std::max(e->fetch_cycles, t.data_op + t.store_extra +           \
                                         dspan_.write_cycles);              \
    cc.snoop_write(addr, (SIZE));                                           \
    if (block->gen != cc.generation()) {                                    \
      regs_[isa::pc] = e->pc + static_cast<std::uint32_t>(e->d.size);       \
      SB_SYNC();                                                            \
      return; /* self-modifying store killed this very block */             \
    }                                                                       \
  }                                                                         \
  ACES_SB_NEXT();

lbl_ldr_imm:
  SB_LOAD(4, offset_imm)
lbl_ldrb_imm:
  SB_LOAD(1, offset_imm)
lbl_ldrh_imm:
  SB_LOAD(2, offset_imm)
lbl_ldr_reg:
  SB_LOAD(4, offset_reg)
lbl_ldrb_reg:
  SB_LOAD(1, offset_reg)
lbl_ldrh_reg:
  SB_LOAD(2, offset_reg)

lbl_str_imm:
  SB_STORE(4, offset_imm)
lbl_strb_imm:
  SB_STORE(1, offset_imm)
lbl_strh_imm:
  SB_STORE(2, offset_imm)
lbl_str_reg:
  SB_STORE(4, offset_reg)
lbl_strb_reg:
  SB_STORE(1, offset_reg)
lbl_strh_reg:
  SB_STORE(2, offset_reg)

#undef SB_LOAD
#undef SB_STORE
#undef SB_INSN
#undef SB_HANDLER

// ----- generic funnel: full execute() semantics for one entry -----
lbl_generic:
slow_entry : {
  // execute() expects the per-insn contract: cur_pc_ at the instruction,
  // regs[pc] sequentially advanced, real counters current.
  cur_pc_ = e->pc;
  regs_[isa::pc] = e->pc + static_cast<std::uint32_t>(e->d.size);
  SB_SYNC();
  std::uint32_t exec_cycles = 0;
  execute(e->d, &exec_cycles);
  cyc = cycles_ + std::max(e->fetch_cycles, exec_cycles);
  if (halt_ != HaltReason::none) {
    SB_SYNC();
    return;
  }
  if (regs_[isa::pc] != e->pc + static_cast<std::uint32_t>(e->d.size)) {
    goto pc_changed;
  }
  if (block->gen != cc.generation()) {
    SB_SYNC();
    return;  // a store / snooped write inside execute() killed this block
  }
  // An MMIO store may have raised an interrupt line synchronously. Re-pin
  // estop to the very next boundary so the tail's folded check routes it
  // to boundary_attend before another entry runs.
  if (intc != nullptr && intc->dispatch_needed()) {
    attentive = true;
    estop = e + 1;
  }
}
  ACES_SB_NEXT();

span_done:
  regs_[isa::pc] = block->end_pc;  // fall-through past the last entry
  SB_SYNC();
  return;  // untaken terminator: outer loop re-enters per protocol

park:
  // An interior boundary hit the instruction or cycle budget: park a resume
  // cursor so the next call (after the caller services the boundary — hook,
  // poll, WFI gate) re-enters dispatch at this exact entry.
  regs_[isa::pc] = e->pc;
  SB_SYNC();
  if (e->it_info != 0) {
    materialize_it(e);  // parked mid-IT-body: leave the real state live
  }
  sb_resume_block_ = block;
  sb_resume_seq_ = block->seq;
  sb_resume_idx_ = static_cast<std::uint32_t>(e - ents);
  return;

boundary_attend:
  // Present the per-insn boundary state to the hook / controller: regs[pc]
  // at the next entry (exception stacking pushes it), counters current.
  // Inside a specialized IT body that includes the live IT state — the
  // stacked psr must carry the IT bits, and every step_insn fallback below
  // must see the body the way the per-insn tier would.
  regs_[isa::pc] = e->pc;
  if (e->it_info != 0) {
    materialize_it(e);
  }
  if (hooked || (intc != nullptr && intc->dispatch_needed())) {
    // The per-instruction tier's boundary protocol, hook then poll (the
    // WFI gate always passes here: wfi ends a block). A hook that
    // invalidates decodes (an injector upset) still gets this boundary's
    // poll before the fallback below.
    SB_SYNC();
    if (!attend_boundary()) {
      return;  // halted by the poll
    }
    if (regs_[isa::pc] != e->pc || block->gen != cc.generation() ||
        privileged_ != block->privileged) {
      // Vectored to a handler, or the hook or hardware stacking killed
      // this block: this boundary is already serviced, so retire one
      // instruction per-insn before handing back to the outer loop.
      step_insn();
      return;
    }
    cyc = cycles_;
    // The poll may have drained the pending set; re-evaluate so the span
    // can go quiet again (hook and gates keep it attentive for good).
    attentive =
        hooked || vgates || (intc != nullptr && intc->dispatch_needed());
  }
  if (vgates &&
      ((fpb_ != nullptr && fpb_->version() != fpb_version_seen_) ||
       (mpu_ != nullptr && mpu_->version() != mpu_version_seen_))) {
    SB_SYNC();
    step_insn();  // a mid-block remap/reconfig: refresh + re-decode fresh
    return;
  }
  if (e->it_info != 0) {
    clear_it_state();  // attention over: the baked conditions take over
  }
  goto dispatch_entry;

pc_changed:
  // A generic entry moved the pc (taken branch, fault vector, exception
  // return, ldm restart). The hot self-loop — a backward branch to this
  // block's own head — re-enters without leaving the dispatcher.
  if (regs_[isa::pc] == block->start_pc && block->gen == cc.generation() &&
      block->privileged == privileged_ && !it_active() && !wfi_ &&
      halt_ == HaltReason::none) {
    ++cc.stats().block_hits;
    e = ents;
    goto boundary;
  }
  SB_SYNC();
  return;
}

#undef SB_SYNC
#undef ACES_SB_NEXT
#undef ACES_SB_DISPATCH
#undef ACES_SB_THREADED
#undef ACES_SB_FOR_EACH_CLASS

}  // namespace aces::cpu
