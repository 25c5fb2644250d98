#include "cpu/code_cache.h"

#include <algorithm>

namespace aces::cpu {

CodeCache::CodeCache(unsigned pc_shift, bool blocks)
    : lines_(kSlots), blocks_(blocks ? kSlots : 0), pc_shift_(pc_shift) {
  if (blocks) {
    scratch_.reserve(kMaxEntries);
  }
}

void CodeCache::widen(std::uint32_t lo, std::uint32_t hi) {
  watch_lo_ = std::min(watch_lo_, lo);
  watch_hi_ = std::max(watch_hi_, hi);
}

// Installed `fixed` lines double as formation fodder for the superblock
// tier: Core::form_superblock reuses a valid line instead of re-probing
// the fetch path, so a warm loop upgrades to a block without extra bus reads.
void CodeCache::install_line(std::uint32_t pc, const Decoded& d,
                             FetchReplay replay, std::uint32_t fixed_cycles,
                             bool privileged) {
  Line& l = lines_[slot(pc)];
  l.pc = pc;
  l.gen = generation_;
  l.replay = replay;
  l.privileged = privileged;
  l.fixed_cycles = fixed_cycles;
  l.d = d;
  widen(pc, pc + static_cast<std::uint32_t>(d.size));
}

CodeCache::Block* CodeCache::install_block(std::uint32_t start_pc,
                                           std::uint32_t end_pc,
                                           bool privileged) {
  Block& b = blocks_[slot(start_pc)];
  if (b.gen == generation_ && !b.entries.empty()) {
    ++stats_.blocks_killed;  // direct-mapped eviction
    --live_;
  }
  b.entries.swap(scratch_);
  b.start_pc = start_pc;
  b.end_pc = end_pc;
  b.gen = generation_;
  ++b.seq;
  b.privileged = privileged;
  widen(start_pc, end_pc);
  if (!b.entries.empty()) {
    ++live_;
    ++stats_.blocks_formed;
    stats_.entries_chained += b.entries.size();
  }
  return &b;
}

void CodeCache::invalidate_all() {
  ++stats_.decode_invalidations;
  if (has_blocks()) {
    ++stats_.block_flushes;
    stats_.blocks_killed += live_;
    live_ = 0;
  }
  watch_lo_ = 0xFFFF'FFFFu;
  watch_hi_ = 0;
  if (++generation_ == 0) {
    // Generation wrap (once per 2^32 flushes): scrub the slot tags so no
    // ancient entry aliases the recycled generation value.
    for (Line& l : lines_) {
      l.gen = 0;
    }
    for (Block& b : blocks_) {
      b.gen = 0;
    }
    generation_ = 1;
  }
}

void CodeCache::invalidate_range(std::uint32_t addr, std::uint32_t len) {
  if (len > kMaxProbeBytes) {
    invalidate_all();  // image reload: not worth probing per slot
    return;
  }
  // Cached code overlapping [addr, addr+len) starts in (addr - span, end),
  // span being the longest cached range: an instruction (4 bytes) or a
  // block. Probe every aligned candidate start — bounded, and only reached
  // when the write already hit the watch window.
  const std::uint64_t end = static_cast<std::uint64_t>(addr) + len;
  const std::uint32_t step = 1u << pc_shift_;
  const std::uint32_t reach = (has_blocks() ? kMaxSpanBytes : 4) - step;
  bool line_killed = false;
  for (std::uint64_t s = addr > reach ? (addr - reach) & ~(step - 1) : 0;
       s < end; s += step) {
    const auto pc = static_cast<std::uint32_t>(s);
    Line& l = lines_[slot(pc)];
    if (l.gen == generation_ && l.pc == pc &&
        pc + static_cast<std::uint32_t>(l.d.size) > addr) {
      l.gen = 0;
      line_killed = true;
    }
    if (!has_blocks()) {
      continue;
    }
    Block& b = blocks_[slot(pc)];
    if (b.gen != generation_ || b.start_pc != pc || b.end_pc <= addr) {
      continue;
    }
    b.gen = 0;
    if (b.entries.empty()) {
      continue;  // a marker: the rewritten bytes may now chain
    }
    --live_;
    ++stats_.blocks_killed;
    if (addr > pc) {
      ++stats_.block_splits;  // landed strictly inside the chained range
    }
  }
  if (line_killed) {
    ++stats_.decode_invalidations;
  }
}

}  // namespace aces::cpu
