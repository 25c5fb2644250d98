// System bus: routes CPU accesses to memory-mapped devices.
//
// The bus owns nothing; devices are registered with their base address and
// must outlive the bus. Accesses that hit no device, straddle a device
// boundary, or are unaligned return a Fault instead of data. The bus itself
// adds no cycles — all timing lives in the devices.
//
// Routing cost: a per-access-kind MRU memo remembers the last device hit,
// so streams of accesses to the same region (instruction fetch runs, stack
// traffic) skip the binary search entirely; only region changes pay it.
#ifndef ACES_MEM_BUS_H
#define ACES_MEM_BUS_H

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/device.h"

namespace aces::mem {

// Observer of bus writes inside a watch window. The window is checked
// inline by the bus (two compares), so a quiescent snoop is nearly free;
// the virtual call happens only for writes that intersect it. The CPU's
// decoded-instruction cache uses this to catch self-modifying code and
// flash reprogramming.
class WriteSnoop {
 public:
  virtual ~WriteSnoop() = default;

  [[nodiscard]] std::uint32_t watch_lo() const { return watch_lo_; }
  [[nodiscard]] std::uint32_t watch_hi() const { return watch_hi_; }

  // A write of `len` bytes at `addr` intersected [watch_lo, watch_hi).
  virtual void on_write(std::uint32_t addr, std::uint32_t len) = 0;

 protected:
  // Empty window by default; implementations widen it as they cache state.
  std::uint32_t watch_lo_ = 0xFFFF'FFFFu;
  std::uint32_t watch_hi_ = 0;
};

class Bus {
 public:
  Bus() = default;

  // Maps `dev` at [base, base + dev.size_bytes()). Regions must not overlap.
  void attach(std::uint32_t base, Device& dev);

  [[nodiscard]] MemResult read(std::uint32_t addr, unsigned size, Access kind,
                               std::uint64_t now);
  [[nodiscard]] MemResult write(std::uint32_t addr, unsigned size,
                                std::uint32_t value, std::uint64_t now);

  // Debug/loader access: reads or writes bytes with no timing or side
  // effects beyond the raw store (used to load program images and by the
  // debug port). Returns false if the range is unmapped.
  bool load_image(std::uint32_t addr, const std::uint8_t* data,
                  std::uint32_t len);

  // Finds the device covering addr, or nullptr. `offset` receives the
  // device-relative address.
  [[nodiscard]] Device* device_at(std::uint32_t addr, std::uint32_t* offset);

  // Resolves the direct span covering `addr`. Returns true with `out`
  // rebased to guest addresses when the covering device exports one. When
  // the address is mapped but the device declines, returns false with
  // out->base/size set to the mapping range and out->data == nullptr, so
  // callers can negative-cache the window. Unmapped: false, out->size == 0.
  bool direct_span(std::uint32_t addr, DirectSpan* out);

  // Device::fixed_fetch_cost for the device covering [addr, addr+size), or
  // nullopt when unmapped / out of range / the device declines.
  [[nodiscard]] std::optional<std::uint32_t> fixed_fetch_cost(
      std::uint32_t addr, unsigned size);

  // Device::fetch_streamer for the device covering `addr`, rebased to
  // guest addresses; false when unmapped or the device declines.
  bool fetch_streamer(std::uint32_t addr, FetchStreamer* out);

  // Installs (or clears, with nullptr) the write snoop. Writes through
  // write()/load_image() that intersect the snoop's watch window invoke it
  // after the bytes land. Writes bypassing the bus — DirectSpan stores, a
  // bit-band alias mutating its underlying SRAM — are the caller's problem.
  void set_write_snoop(WriteSnoop* snoop) { snoop_ = snoop; }

 private:
  struct Mapping {
    std::uint32_t base = 0;
    std::uint32_t limit = 0;  // exclusive
    Device* dev = nullptr;
  };
  // MRU memo: last mapping hit, one per Access kind. base > limit encodes
  // "empty". Mappings never move or unmap, so a filled memo stays valid.
  struct Mru {
    std::uint32_t base = 1;
    std::uint32_t limit = 0;
    Device* dev = nullptr;
  };

  // Shared routing for read()/write(): MRU probe, binary-search fallback,
  // straddle check, memo fill. Returns the device and its relative offset,
  // or nullptr with *fault set.
  Device* route(std::uint32_t addr, unsigned size, Mru& memo,
                std::uint32_t* offset, Fault* fault);

  void notify_snoop(std::uint32_t addr, std::uint32_t len) {
    // The end-of-write term is widened so a write ending exactly at the
    // 4 GiB boundary still intersects the watch window.
    if (snoop_ != nullptr && len != 0 && addr < snoop_->watch_hi() &&
        static_cast<std::uint64_t>(addr) + len > snoop_->watch_lo()) {
      snoop_->on_write(addr, len);
    }
  }

  std::vector<Mapping> map_;
  std::array<Mru, 3> mru_{};  // indexed by Access
  WriteSnoop* snoop_ = nullptr;
};

}  // namespace aces::mem

#endif  // ACES_MEM_BUS_H
