// Embedded flash model with a sequential prefetch streamer (§2.2 of the
// paper).
//
// Real embedded flash runs at 30-40 MHz while the core runs several times
// faster, so flash controllers fetch a whole line ahead of the program
// counter and stream it. A sequential access hits the stream buffer in one
// cycle; a non-sequential access (branch target, or a *data* read such as a
// literal-pool fetch) pays the full line access time AND repositions the
// streamer, so the following instruction fetch misses too. This double
// penalty is the mechanism behind the paper's "15 % performance degradation"
// claim for literal pools, which bench_flash_literals reproduces.
//
// `dual_buffer` models a controller with an independent data buffer: data
// reads still pay the line latency but no longer destroy the instruction
// stream (used by the ablation bench).
#ifndef ACES_MEM_FLASH_H
#define ACES_MEM_FLASH_H

#include <algorithm>

#include "mem/device.h"
#include "mem/storage.h"

namespace aces::mem {

struct FlashConfig {
  std::uint32_t size_bytes = 256 * 1024;
  // Full random (line) access time in core cycles. A 32 MHz flash behind a
  // 160 MHz core is ~5 cycles.
  std::uint32_t line_access_cycles = 5;
  std::uint32_t line_bytes = 8;  // prefetch line width (power of two)
  bool prefetch_enabled = true;  // streamer on/off (ablation)
  bool dual_buffer = false;      // independent data-side buffer (ablation)
};

class Flash final : public Device {
 public:
  explicit Flash(FlashConfig config);

  [[nodiscard]] std::string_view name() const override { return "flash"; }
  [[nodiscard]] std::uint32_t size_bytes() const override {
    return store_.size();
  }

  [[nodiscard]] MemResult read(std::uint32_t addr, unsigned size, Access kind,
                               std::uint64_t now) override;
  [[nodiscard]] MemResult write(std::uint32_t addr, unsigned size,
                                std::uint32_t value, std::uint64_t now) override;

  bool program(std::uint32_t addr, std::uint8_t byte) override;

  // The streamer's fetch cost is state-free in two regimes, both exactly
  // line_access_cycles per line touched:
  //   - prefetch disabled: every access pays the full line time;
  //   - line_access_cycles == 1 (the "ideal memory" benchmarking regime):
  //     hit, next-line wait (min(wait+1, 1)) and break all cost 1 cycle.
  // Everywhere else the cost depends on streamer history: fetch_streamer()
  // answers instead, and cached instructions run the protocol inline.
  [[nodiscard]] std::optional<std::uint32_t> fixed_fetch_cost(
      std::uint32_t addr, unsigned size) const override {
    if (!state_free()) {
      return std::nullopt;
    }
    return config_.line_access_cycles *
           (line_of(addr + size - 1) - line_of(addr) + 1);
  }

  // Hands the instruction streamer to a core outside the state-free
  // regimes, which stay on fixed_fetch_cost.
  bool fetch_streamer(FetchStreamer* out) override {
    if (state_free()) {
      return false;
    }
    out->flash = this;
    out->size = store_.size();
    return true;
  }

  // One instruction-side read through the streamer: exactly the timing and
  // statistics of read(addr, size, Access::fetch, now), without the value.
  std::uint32_t stream_fetch(std::uint32_t addr, unsigned size,
                             std::uint64_t now) {
    return stream_access(istream_, addr, size, now);
  }

  // The stored bytes, with no timing or streamer side effects.
  [[nodiscard]] std::uint32_t peek(std::uint32_t addr, unsigned size) const {
    return store_.read_le(addr, size);
  }

  // Statistics for the experiments.
  struct Stats {
    std::uint64_t stream_hits = 0;       // 1-cycle buffer hits
    std::uint64_t stream_next_line = 0;  // waited on the prefetcher
    std::uint64_t stream_breaks = 0;     // non-sequential: full access
    std::uint64_t data_disruptions = 0;  // data reads that reset the stream
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  // Resets streamer state (e.g. between benchmark repetitions).
  void reset_stream();

 private:
  // Per-port streamer state.
  struct Stream {
    bool valid = false;
    std::uint32_t line = 0;               // line currently in the buffer
    std::uint64_t next_line_ready = 0;    // when line+1 finishes prefetching
  };

  [[nodiscard]] std::uint32_t line_of(std::uint32_t addr) const {
    return addr / config_.line_bytes;
  }
  [[nodiscard]] bool state_free() const {
    return !config_.prefetch_enabled || config_.line_access_cycles == 1;
  }

  // The streamer protocol, run on `s`; returns cycles for this access.
  // Inline: the superblock tier charges streamed fetches through it.
  std::uint32_t stream_access(Stream& s, std::uint32_t addr, unsigned size,
                              std::uint64_t now) {
    const std::uint32_t first = line_of(addr);
    const std::uint32_t last = line_of(addr + size - 1);
    const std::uint32_t t_line = config_.line_access_cycles;

    if (!config_.prefetch_enabled) {
      // Every access pays the full line time (per line touched).
      return t_line * (last - first + 1);
    }

    std::uint32_t cycles = 0;
    std::uint32_t line = first;
    std::uint64_t t = now;
    while (true) {
      if (s.valid && line == s.line) {
        // In the buffer.
        cycles += 1;
        t += 1;
        ++stats_.stream_hits;
      } else if (s.valid && line == s.line + 1) {
        // The streamer is (or was) fetching this line in the background.
        // Never worse than a fresh random access.
        const std::uint64_t ready = s.next_line_ready;
        const std::uint32_t wait =
            ready > t ? static_cast<std::uint32_t>(ready - t) : 0;
        const std::uint32_t cost = std::min(wait + 1, t_line);
        cycles += cost;
        t += cost;
        s.line = line;
        s.next_line_ready = t + t_line;
        ++stats_.stream_next_line;
      } else {
        // Non-sequential: full access, stream repositioned.
        cycles += t_line;
        t += t_line;
        s.valid = true;
        s.line = line;
        s.next_line_ready = t + t_line;
        ++stats_.stream_breaks;
      }
      if (line == last) {
        break;
      }
      ++line;
    }
    return cycles;
  }

  FlashConfig config_;
  ByteStore store_;
  Stream istream_;  // instruction-side streamer
  Stream dstream_;  // data-side buffer when dual_buffer is set
  Stats stats_;
};

}  // namespace aces::mem

#endif  // ACES_MEM_FLASH_H
