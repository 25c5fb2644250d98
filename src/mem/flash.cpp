#include "mem/flash.h"

#include "support/bits.h"
#include "support/check.h"

namespace aces::mem {

Flash::Flash(FlashConfig config) : config_(config), store_(config.size_bytes) {
  ACES_CHECK(support::is_power_of_two(config_.line_bytes));
  ACES_CHECK(config_.line_bytes >= 4);
  ACES_CHECK(config_.line_access_cycles >= 1);
}

void Flash::reset_stream() {
  istream_ = Stream{};
  dstream_ = Stream{};
}

MemResult Flash::read(std::uint32_t addr, unsigned size, Access kind,
                      std::uint64_t now) {
  MemResult r;
  r.value = store_.read_le(addr, size);
  if (kind == Access::fetch) {
    r.cycles = stream_fetch(addr, size, now);
    return r;
  }
  // Data-side read (e.g. literal pool).
  if (config_.dual_buffer) {
    r.cycles = stream_access(dstream_, addr, size, now);
    return r;
  }
  // Single-port controller: the data read goes through the instruction
  // streamer and repositions it — the §2.2 disruption.
  const bool was_streaming =
      istream_.valid && line_of(addr) != istream_.line &&
      line_of(addr) != istream_.line + 1;
  r.cycles = stream_access(istream_, addr, size, now);
  if (was_streaming) {
    ++stats_.data_disruptions;
  }
  return r;
}

MemResult Flash::write(std::uint32_t addr, unsigned, std::uint32_t,
                       std::uint64_t) {
  (void)addr;
  MemResult r;
  r.fault = Fault::readonly;
  return r;
}

bool Flash::program(std::uint32_t addr, std::uint8_t byte) {
  if (addr >= store_.size()) {
    return false;
  }
  store_.set_byte(addr, byte);
  return true;
}

}  // namespace aces::mem
