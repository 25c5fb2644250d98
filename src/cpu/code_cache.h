// Code cache: the one owner of the ISS's cached code and of its
// invalidation.
//
// Every retired instruction used to pay a flash-patch scan, an MPU check, a
// bus route and a full Codec::decode. Straight-line and loop code repeats
// the same program counters, so the core keeps two direct-mapped arrays
// keyed by pc:
//   - decode lines (per_insn and superblock tiers): one decoded instruction
//     each. A hit skips all of the above — but never the *modeled* fetch
//     timing: a line records how to reproduce the fetch cost (FetchReplay),
//     so cycle traces, architectural state and stateful device behavior
//     stay bit-identical to an uncached run. (Pure bookkeeping counters of
//     skipped work — MPU fetch-check stats for already-validated pcs, flash
//     stream-hit categorization in its state-free regimes — do not advance
//     on `fixed` hits; nothing cycle-bearing depends on them.)
//   - block slots (superblock tier only): straight-line superblocks chained
//     from decode-line-grade entries (formation and dispatch live in
//     superblock.cpp), or negative markers where formation failed.
//
// Invalidation contract. Both arrays live under one generation (a bump is
// an O(1) flush of everything) and one watch window: the monotonic union of
// the byte ranges of every line and block (markers included) installed
// since the last flush. A write to guest memory reaches invalidate_range
// only when it intersects the window — two compares otherwise, which is
// almost always — and kills every line and block whose bytes it overlaps
// (a block hit strictly inside its range counts as a split; the prefix and
// suffix re-form lazily). Writes longer than kMaxProbeBytes (image reloads)
// flush everything instead. Sources:
//   - writes into code: the bus write snoop (this class is the bus's
//     WriteSnoop: host pokes, load_image flash reprogramming) and the
//     core's own store path (self-modifying code through DirectSpan
//     stores, which bypass the bus) both call snoop_write;
//   - FlashPatchUnit remaps and MPU reconfiguration: version counters the
//     core compares before each lookup (only when those units exist), and
//     flushes on a change;
//   - FaultInjector upsets (bit flips in code memory): the injector's upset
//     hook (wired by System) flushes, so a freshly corrupted word is
//     re-decoded exactly like an uncached fetch would see it; reset()
//     flushes too;
//   - privilege changes: each line and block records the privilege its MPU
//     fetch check was validated under; a mismatch is a miss.
// Known hole: mutating code bytes through a bit-band alias of the SRAM that
// holds them bypasses the watch window (the alias write carries the alias
// address). No modeled scenario executes from bit-banded data.
#ifndef ACES_CPU_CODE_CACHE_H
#define ACES_CPU_CODE_CACHE_H

#include <cstdint>
#include <vector>

#include "isa/isa.h"
#include "mem/bus.h"

namespace aces::cpu {

// A fetched-and-decoded instruction (also the unit the executor consumes).
struct Decoded {
  isa::Instruction insn;
  int size = 0;  // bytes occupied in the instruction stream
};

// How a cached entry reproduces the fetch cost of the instruction:
//   fixed     — charge `fixed_cycles`, touch no memory. Used for FPB patch
//               RAM (always 1 cycle) and for code in DirectSpan memory
//               (SRAM), whose cost is constant and side-effect free.
//   one_read  — re-issue the single ifetch read: the device's timing model
//               (flash streamer, I-cache) must advance exactly as if the
//               fetch were real, so only the decode work is skipped.
//   two_read  — re-issue both halfword reads (a 32-bit instruction in a
//               16-bit stream).
enum class FetchReplay : std::uint8_t { fixed, one_read, two_read };

// How the threaded dispatcher executes one block entry. `generic` funnels
// through Core::execute() (full semantics: IT predication, faults, every
// op); the rest are straight-line specializations valid only for rd != pc,
// outside IT bodies, and (for memory classes) cores without an MPU — the
// classifier in superblock.cpp enforces those rules at formation time.
// W32-encoded conditions are handled in-line: every specialized handler
// gates on cond_holds and charges the annulled-slot cycle on failure,
// exactly like Core::execute().
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

class CodeCache final : public mem::WriteSnoop {
 public:
  // Slots per array (direct-mapped): 2048 decode lines, and as many block
  // slots on the superblock tier.
  static constexpr std::uint32_t kSlots = 2048;
  // Formation stops at a page boundary so one guest write can only ever
  // affect blocks in its own and the previous page; the length cap bounds
  // formation cost (interrupt delivery is exact regardless — the executor
  // polls at every entry boundary).
  static constexpr std::uint32_t kMaxEntries = 32;
  static constexpr std::uint32_t kPageBytes = 1024;
  // Longest possible chained byte range (for the range-kill probe window).
  static constexpr std::uint32_t kMaxSpanBytes = kMaxEntries * 4;
  // Longest write invalidate_range probes; longer ones flush everything.
  static constexpr std::uint32_t kMaxProbeBytes = 256;
  // Entry::dispatch offset of the streamed stubs.
  static constexpr std::uint8_t kStreamed =
      static_cast<std::uint8_t>(ExecClass::count);

  struct Line {
    std::uint32_t pc = 0;
    std::uint32_t gen = 0;  // valid iff == cache generation
    FetchReplay replay = FetchReplay::one_read;
    bool privileged = false;  // privilege the fetch MPU check passed under
    std::uint32_t fixed_cycles = 0;
    Decoded d;
  };

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
    std::uint64_t decode_hits = 0;
    std::uint64_t decode_misses = 0;
    std::uint64_t decode_invalidations = 0;  // flushes + writes killing lines
    std::uint64_t blocks_formed = 0;
    std::uint64_t blocks_killed = 0;   // write/flush/evict invalidations
    std::uint64_t block_splits = 0;    // kills landing strictly mid-range
    std::uint64_t block_flushes = 0;   // invalidate_all calls (block tier)
    std::uint64_t block_hits = 0;      // block entries from the dispatcher
    std::uint64_t block_misses = 0;    // lookups that fell to per-insn
    std::uint64_t entries_chained = 0;     // sum of formed block lengths
    std::uint64_t block_instructions = 0;  // insns retired inside blocks
  };

  // `pc_shift` is the log2 of the encoding's instruction alignment (1 for
  // the halfword streams, 2 for W32), so every slot is reachable; `blocks`
  // adds the block slots of the superblock tier.
  CodeCache(unsigned pc_shift, bool blocks);
  // The bus holds its address as the write snoop.
  CodeCache(const CodeCache&) = delete;
  CodeCache& operator=(const CodeCache&) = delete;

  // ----- decode lines -----
  // The valid line for `pc`, or nullptr.
  [[nodiscard]] Line* line(std::uint32_t pc) {
    Line& l = lines_[slot(pc)];
    return (l.gen == generation_ && l.pc == pc) ? &l : nullptr;
  }
  void install_line(std::uint32_t pc, const Decoded& d, FetchReplay replay,
                    std::uint32_t fixed_cycles, bool privileged);

  // ----- block slots (superblock tier) -----
  [[nodiscard]] Block* block(std::uint32_t pc, bool privileged) {
    Block& b = blocks_[slot(pc)];
    return (b.gen == generation_ && b.start_pc == pc &&
            b.privileged == privileged)
               ? &b
               : nullptr;
  }
  // True (counted as a block miss) when `pc` holds a negative marker: the
  // caller runs it per-instruction without entering block dispatch.
  [[nodiscard]] bool marked_unformable(std::uint32_t pc, bool privileged) {
    const Block* b = block(pc, privileged);
    if (b == nullptr || !b->entries.empty()) {
      return false;
    }
    ++stats_.block_misses;
    return true;
  }
  // Formation scratch: build entries here, then install_block() moves them
  // into the mapped slot (recycling the evicted block's capacity). An empty
  // scratch installs a negative marker covering [start_pc, end_pc).
  [[nodiscard]] std::vector<Entry>& scratch() { return scratch_; }
  Block* install_block(std::uint32_t start_pc, std::uint32_t end_pc,
                       bool privileged);

  // ----- invalidation -----
  // O(1): bumps the generation and empties the watch window.
  void invalidate_all();
  // Kills every line and block overlapping [addr, addr + len).
  void invalidate_range(std::uint32_t addr, std::uint32_t len);
  // A write of `len` bytes at `addr`: invalidate_range when it intersects
  // the watch window. The end-of-write term is widened so a write ending
  // exactly at the 4 GiB boundary still intersects.
  void snoop_write(std::uint32_t addr, std::uint32_t len) {
    if (addr < watch_hi_ &&
        static_cast<std::uint64_t>(addr) + len > watch_lo_) {
      invalidate_range(addr, len);
    }
  }
  // mem::WriteSnoop (bus-side writers; the bus already checked the window).
  void on_write(std::uint32_t addr, std::uint32_t len) override {
    invalidate_range(addr, len);
  }

  [[nodiscard]] std::uint32_t generation() const { return generation_; }
  [[nodiscard]] Stats& stats() { return stats_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  [[nodiscard]] bool has_blocks() const { return !blocks_.empty(); }
  [[nodiscard]] std::uint32_t slot(std::uint32_t pc) const {
    return (pc >> pc_shift_) & (kSlots - 1);
  }
  void widen(std::uint32_t lo, std::uint32_t hi);

  std::vector<Line> lines_;
  std::vector<Block> blocks_;  // empty below the superblock tier
  std::vector<Entry> scratch_;
  unsigned pc_shift_ = 1;
  std::uint32_t generation_ = 1;  // slots start at gen 0: all invalid
  std::uint32_t live_ = 0;        // currently-valid blocks (flush accounting)
  Stats stats_;
};

}  // namespace aces::cpu

#endif  // ACES_CPU_CODE_CACHE_H
