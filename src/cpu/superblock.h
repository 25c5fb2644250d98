// Superblock tier: straight-line runs of decoded instructions executed by a
// threaded-dispatch loop (core.cpp's per-instruction tier is the fallback).
//
// A superblock chains consecutive decode-cache-grade entries starting at a
// block-entry pc and ending at the first terminator: any branch, any op that
// can leave the straight line (svc/bkpt/wfi, pop/ldm touching pc, any
// rd==pc writer), a 1 KiB page boundary, or the length cap. Every entry
// records how to reproduce its *modeled* fetch cost, so block execution
// charges exactly the cycles the per-instruction tier would — the tiers are
// bit-identical in (pc, cycles) traces and flash streamer statistics,
// proven by the three-way differential fuzzer.
//
// Formation accepts every pc whose fetch cost the core can reproduce
// exactly without the port: state-free fetches (MemPort::fixed_fetch_cost
// answers: SRAM, flash in its 1-cycle or prefetch-off regimes, FPB patch
// RAM) are charged their fixed price, and streamer-backed flash
// (MemPort::fetch_streamer answers: the default wait-stated regimes) is
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
//
// Invalidation mirrors the decode cache and adds block granularity: the
// core-side store snoop and the bus write snoop kill any block whose chained
// range the write lands in (a hit strictly inside the range counts as a
// split — the prefix/suffix re-form lazily); FPB/MPU version bumps, fault-
// injector upsets and reset() flush everything via a generation bump; a
// privilege mismatch at entry is a miss. Interrupts are polled at every
// entry boundary, gated by InterruptController::dispatch_needed(), so IRQ
// delivery instants are unchanged from the per-instruction tier.
#ifndef ACES_CPU_SUPERBLOCK_H
#define ACES_CPU_SUPERBLOCK_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cpu/decode_cache.h"
#include "mem/bus.h"

namespace aces::cpu {

// How the threaded dispatcher executes one entry. `generic` funnels through
// Core::execute() (full semantics: IT predication, faults, every op); the
// rest are straight-line specializations valid only for rd != pc, outside
// IT bodies, and (for memory classes) cores without an MPU — the classifier
// in superblock.cpp enforces those rules at formation time. W32-encoded
// conditions are handled in-line: every specialized handler gates on
// cond_holds and charges the annulled-slot cycle on failure, exactly like
// Core::execute().
enum class ExecClass : std::uint8_t {
  generic,
  nop,
  // ALU with dynamic operand2 (imm or rm, per Instruction::uses_imm).
  mov, mvn, add, adc, sub, sbc, rsb, cmp, cmn,
  and_, orr, eor, bic, tst, teq,
  shift,  // lsl/lsr/asr/ror, imm or register amount
  mul,
  movw, movt, ubfx,
  sxtb, sxth, uxtb, uxth,
  adr,
  it_,     // IT instruction whose whole body was specialized (cost only)
  branch,  // direct b with an in-range target (taken: loops back in-dispatch)
  cbz,     // cbz/cbnz with an in-range target
  // Loads/stores on the DirectSpan fast path (slow path: generic funnel).
  ldr_imm, ldrb_imm, ldrh_imm, ldr_reg, ldrb_reg, ldrh_reg,
  str_imm, strb_imm, strh_imm, str_reg, strb_reg, strh_reg,
  count,
};

class SuperblockCache {
 public:
  // Formation stops at a page boundary so one guest write can only ever
  // affect blocks in its own and the previous page; the length cap bounds
  // formation cost (interrupt delivery is exact regardless — the executor
  // polls at every entry boundary).
  static constexpr std::uint32_t kMaxEntries = 32;
  static constexpr std::uint32_t kPageBytes = 1024;
  // Longest possible chained byte range (for the snoop probe window).
  static constexpr std::uint32_t kMaxSpanBytes = kMaxEntries * 4;
  // Entry::dispatch offset of the streamed stubs.
  static constexpr std::uint8_t kStreamed =
      static_cast<std::uint8_t>(ExecClass::count);

  struct Entry {
    Decoded d;
    std::uint32_t pc = 0;
    // Modeled fetch cost and max(fetch_cycles, timings.data_op): fixed at
    // formation, or — for a streamed entry — rewritten by its dispatch
    // stub on every execution.
    std::uint32_t fetch_cycles = 0;
    std::uint32_t base_cycles = 0;
    ExecClass klass = ExecClass::generic;
    // Label-table index: klass, or kStreamed + klass for a streamed entry,
    // whose fetch runs the core's flash streamer (two reads for a 32-bit
    // instruction in a halfword stream, else one) each time it executes.
    std::uint8_t dispatch = 0;
    bool set = false;  // effective flag-setting (classifier-validated)
    // 1-based position inside a specialized IT body (0 = outside). The
    // body's static condition is baked into d.insn.cond for the dispatch
    // gate; this field lets the cold paths rebuild the architectural IT
    // state (the IT entry sits it_info slots back) for exception stacking
    // and per-instruction fallback.
    std::uint8_t it_info = 0;

    [[nodiscard]] bool streamed() const { return dispatch >= kStreamed; }
  };

  // A slot whose `entries` is empty is a negative marker: formation failed
  // at start_pc (a WFI idle loop, a lone terminator, a fetch neither a
  // fixed price nor a streamer covers) and the core goes per-instruction
  // there without re-probing. Markers live and die like blocks —
  // generation flushes and range kills over [start_pc, end_pc) reopen
  // formation — but never count in the formed/killed statistics.
  struct Block {
    std::vector<Entry> entries;
    std::uint32_t start_pc = 0;
    std::uint32_t end_pc = 0;  // one past the last chained byte
    std::uint32_t gen = 0;     // valid iff == cache generation
    std::uint32_t seq = 0;     // bumped per install (guards resume cursors)
    bool privileged = false;
  };

  struct Stats {
    std::uint64_t blocks_formed = 0;
    std::uint64_t blocks_killed = 0;   // snoop/flush/evict invalidations
    std::uint64_t block_splits = 0;    // kills landing strictly mid-range
    std::uint64_t block_flushes = 0;   // invalidate_all calls
    std::uint64_t hits = 0;            // block entries from the dispatcher
    std::uint64_t misses = 0;          // lookups that fell to per-insn
    std::uint64_t entries_chained = 0; // sum of formed block lengths
    std::uint64_t block_instructions = 0;  // insns retired inside blocks
  };

  // `num_blocks` must be a power of two; `pc_shift` as in DecodeCache.
  explicit SuperblockCache(std::uint32_t num_blocks, unsigned pc_shift = 1);

  // True (counted as a miss) when `pc` holds a negative marker: the caller
  // runs it per-instruction without entering block dispatch.
  [[nodiscard]] bool marked_unformable(std::uint32_t pc, bool privileged) {
    const Block* b = lookup(pc, privileged);
    if (b == nullptr || !b->entries.empty()) {
      return false;
    }
    ++stats_.misses;
    return true;
  }

  [[nodiscard]] Block* lookup(std::uint32_t pc, bool privileged) {
    Block& b = blocks_[(pc >> pc_shift_) & mask_];
    return (b.gen == generation_ && b.start_pc == pc &&
            b.privileged == privileged)
               ? &b
               : nullptr;
  }

  // Formation scratch: build entries here, then install() moves them into
  // the mapped slot (recycling the evicted block's capacity). An empty
  // scratch installs a negative marker covering [start_pc, end_pc).
  [[nodiscard]] std::vector<Entry>& scratch() { return scratch_; }
  Block* install(std::uint32_t start_pc, std::uint32_t end_pc,
                 bool privileged);

  void invalidate_all();
  void invalidate_range(std::uint32_t addr, std::uint32_t len);

  // Core-side store snoop (DirectSpan writes bypass the bus); two compares
  // when the store is outside the chained-pc window.
  void snoop_write(std::uint32_t addr, std::uint32_t len) {
    if (addr < watch_hi_ &&
        static_cast<std::uint64_t>(addr) + len > watch_lo_) {
      invalidate_range(addr, len);
    }
  }

  [[nodiscard]] std::uint32_t generation() const { return generation_; }
  [[nodiscard]] Stats& stats() { return stats_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  std::vector<Block> blocks_;
  std::vector<Entry> scratch_;
  std::uint32_t mask_ = 0;
  unsigned pc_shift_ = 1;
  std::uint32_t generation_ = 1;  // blocks start at gen 0: all invalid
  std::uint32_t live_ = 0;        // currently-valid blocks (flush accounting)
  std::uint32_t watch_lo_ = 0xFFFF'FFFFu;
  std::uint32_t watch_hi_ = 0;
  Stats stats_;
};

// The single bus-facing write snoop for a core: fans out to whichever of
// the decode cache and superblock cache exist. Its watch window is the
// union of theirs (widened at install time, cleared only on a full flush of
// both), so the bus pre-check stays two compares for data-only writes.
class CodeWriteSnoop final : public mem::WriteSnoop {
 public:
  void wire(DecodeCache* dcache, SuperblockCache* sbcache) {
    dcache_ = dcache;
    sbcache_ = sbcache;
  }

  void widen(std::uint32_t lo, std::uint32_t hi) {
    watch_lo_ = std::min(watch_lo_, lo);
    watch_hi_ = std::max(watch_hi_, hi);
  }
  void clear_window() {
    watch_lo_ = 0xFFFF'FFFFu;
    watch_hi_ = 0;
  }

  void on_write(std::uint32_t addr, std::uint32_t len) override {
    if (dcache_ != nullptr) {
      dcache_->snoop_write(addr, len);
    }
    if (sbcache_ != nullptr) {
      sbcache_->snoop_write(addr, len);
    }
  }

 private:
  DecodeCache* dcache_ = nullptr;
  SuperblockCache* sbcache_ = nullptr;
};

}  // namespace aces::cpu

#endif  // ACES_CPU_SUPERBLOCK_H
