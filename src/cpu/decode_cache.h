// Decoded-instruction cache: the ISS hot-loop accelerator.
//
// Every retired instruction used to pay a flash-patch scan, an MPU check, a
// bus route and a full Codec::decode. Straight-line and loop code repeats
// the same program counters, so the core keeps a direct-mapped array of
// already-decoded instructions keyed by pc. A hit skips all of the above —
// but never the *modeled* fetch timing: entries record how to reproduce the
// fetch cost (see FetchReplay), so cycle traces, architectural state and
// stateful device behavior stay bit-identical to an uncached run. (Pure
// bookkeeping counters of skipped work — MPU fetch-check stats for
// already-validated pcs, flash stream-hit categorization in its state-free
// regimes — do not advance on `fixed` hits; nothing cycle-bearing depends
// on them.)
//
// Invalidation, the hard part, is a generation bump (O(1) flush) or a
// targeted few-probe line kill for small writes. Sources:
//   - writes into code: the bus write-snoop (host pokes, load_image flash
//     reprogramming) and the core's own store path (self-modifying code)
//     both consult the cached-pc window [watch_lo, watch_hi) — two compares
//     when the write is elsewhere, which is almost always;
//   - FlashPatchUnit remaps and MPU reconfiguration: version counters the
//     core compares before each lookup (only when those units exist);
//   - FaultInjector upsets (bit flips in code memory): the injector's upset
//     hook (wired by System) invalidates, so a freshly corrupted word is
//     re-decoded exactly like an uncached fetch would see it;
//   - privilege changes: each entry records the privilege its MPU fetch
//     check was validated under; a mismatch is a miss.
// Known hole: mutating code bytes through a bit-band alias of the SRAM that
// holds them bypasses the watch window (the alias write carries the alias
// address). No modeled scenario executes from bit-banded data.
//
// This cache is the middle rung of the dispatch ladder: the superblock tier
// (cpu/superblock.h) chains entries of decode-cache grade into straight-
// line blocks — `fixed`-replay ones, and one_read/two_read ones whose reads
// a flash streamer prices (run inline, not replayed through the port) —
// reusing valid lines during formation and mirroring every invalidation
// source above at block granularity.
#ifndef ACES_CPU_DECODE_CACHE_H
#define ACES_CPU_DECODE_CACHE_H

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

class DecodeCache final : public mem::WriteSnoop {
 public:
  struct Line {
    std::uint32_t pc = 0;
    std::uint32_t gen = 0;  // valid iff == cache generation
    FetchReplay replay = FetchReplay::one_read;
    bool privileged = false;  // privilege the fetch MPU check passed under
    std::uint32_t fixed_cycles = 0;
    Decoded d;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidations = 0;
  };

  // `num_lines` must be a power of two. `pc_shift` is the log2 of the
  // encoding's instruction alignment (1 for the halfword streams, 2 for
  // W32), so every line of the array is reachable.
  explicit DecodeCache(std::uint32_t num_lines, unsigned pc_shift = 1);

  // The valid entry for `pc`, or nullptr.
  [[nodiscard]] Line* lookup(std::uint32_t pc) {
    Line& l = lines_[(pc >> pc_shift_) & mask_];
    return (l.gen == generation_ && l.pc == pc) ? &l : nullptr;
  }

  void install(std::uint32_t pc, const Decoded& d, FetchReplay replay,
               std::uint32_t fixed_cycles, bool privileged);

  // O(1): bumps the generation and empties the snoop watch window.
  void invalidate_all();

  // Precise invalidation for a small write: probes only the lines whose pc
  // could overlap [addr, addr+len) and kills those. Large ranges (image
  // reloads) fall back to invalidate_all. The watch window is a monotonic
  // superset filter, so data lying between two cached code regions costs a
  // handful of (missing) probes per store, never a full flush.
  void invalidate_range(std::uint32_t addr, std::uint32_t len);

  // Core-side store snoop (DirectSpan writes bypass the bus). Two compares
  // when the store is outside the cached-pc window. The end-of-write term
  // is widened so a store ending exactly at the 4 GiB boundary still
  // intersects.
  void snoop_write(std::uint32_t addr, std::uint32_t len) {
    if (addr < watch_hi_ &&
        static_cast<std::uint64_t>(addr) + len > watch_lo_) {
      invalidate_range(addr, len);
    }
  }

  // mem::WriteSnoop (bus-side writers; the window was already checked).
  void on_write(std::uint32_t addr, std::uint32_t len) override {
    invalidate_range(addr, len);
  }

  [[nodiscard]] Stats& stats() { return stats_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t num_lines() const {
    return static_cast<std::uint32_t>(lines_.size());
  }

 private:
  std::vector<Line> lines_;
  std::uint32_t mask_ = 0;
  unsigned pc_shift_ = 1;
  std::uint32_t generation_ = 1;  // lines start at gen 0: all invalid
  Stats stats_;
};

}  // namespace aces::cpu

#endif  // ACES_CPU_DECODE_CACHE_H
