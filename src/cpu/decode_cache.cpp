#include "cpu/decode_cache.h"

#include <algorithm>

#include "support/bits.h"
#include "support/check.h"

namespace aces::cpu {

DecodeCache::DecodeCache(std::uint32_t num_lines, unsigned pc_shift)
    : pc_shift_(pc_shift) {
  ACES_CHECK_MSG(support::is_power_of_two(num_lines),
                 "decode cache line count must be a power of two");
  lines_.resize(num_lines);
  mask_ = num_lines - 1;
}

// Installed `fixed` lines double as formation fodder for the superblock
// tier: Core::form_superblock reuses a valid line instead of re-probing
// the fetch path, so a warm loop upgrades to a block without extra bus reads.
void DecodeCache::install(std::uint32_t pc, const Decoded& d,
                          FetchReplay replay, std::uint32_t fixed_cycles,
                          bool privileged) {
  Line& l = lines_[(pc >> pc_shift_) & mask_];
  l.pc = pc;
  l.gen = generation_;
  l.replay = replay;
  l.privileged = privileged;
  l.fixed_cycles = fixed_cycles;
  l.d = d;
  watch_lo_ = std::min(watch_lo_, pc);
  watch_hi_ = std::max(watch_hi_, pc + static_cast<std::uint32_t>(d.size));
}

void DecodeCache::invalidate_range(std::uint32_t addr, std::uint32_t len) {
  if (len > 64) {
    invalidate_all();  // image reload: not worth probing per halfword
    return;
  }
  // Any cached instruction overlapping the write starts at most 3 bytes
  // (max size - 1) below it; instructions are at least halfword-aligned.
  const std::uint32_t first = (addr >= 3 ? addr - 3 : 0) & ~1u;
  const std::uint64_t end = static_cast<std::uint64_t>(addr) + len;
  bool killed = false;
  for (std::uint64_t candidate = first; candidate < end; candidate += 2) {
    const auto pc = static_cast<std::uint32_t>(candidate);
    Line& l = lines_[(pc >> pc_shift_) & mask_];
    if (l.gen == generation_ && l.pc == pc &&
        pc + static_cast<std::uint32_t>(l.d.size) > addr) {
      l.gen = 0;
      killed = true;
    }
  }
  if (killed) {
    ++stats_.invalidations;
  }
}

void DecodeCache::invalidate_all() {
  ++stats_.invalidations;
  watch_lo_ = 0xFFFF'FFFFu;
  watch_hi_ = 0;
  if (++generation_ == 0) {
    // Generation wrap (once per 2^32 invalidations): scrub line tags so no
    // ancient entry aliases the recycled generation value.
    for (Line& l : lines_) {
      l.gen = 0;
    }
    generation_ = 1;
  }
}

}  // namespace aces::cpu
