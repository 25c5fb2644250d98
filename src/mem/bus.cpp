#include "mem/bus.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "support/check.h"

namespace aces::mem {

namespace {

[[nodiscard]] std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

}  // namespace

void Bus::attach(std::uint32_t base, Device& dev) {
  const std::uint32_t limit = base + dev.size_bytes();
  ACES_CHECK_MSG(limit > base, "device '" + std::string(dev.name()) +
                                   "' wraps the address space at " +
                                   hex(base));
  // Insert keeping map_ sorted by base; the neighbors are the only possible
  // overlaps.
  const auto pos = std::upper_bound(
      map_.begin(), map_.end(), base,
      [](std::uint32_t b, const Mapping& m) { return b < m.base; });
  if (pos != map_.begin()) {
    const Mapping& prev = *std::prev(pos);
    ACES_CHECK_MSG(base >= prev.limit,
                   "bus mapping '" + std::string(dev.name()) + "' [" +
                       hex(base) + ", " + hex(limit) + ") overlaps '" +
                       std::string(prev.dev->name()) + "' [" + hex(prev.base) +
                       ", " + hex(prev.limit) + ")");
  }
  if (pos != map_.end()) {
    ACES_CHECK_MSG(limit <= pos->base,
                   "bus mapping '" + std::string(dev.name()) + "' [" +
                       hex(base) + ", " + hex(limit) + ") overlaps '" +
                       std::string(pos->dev->name()) + "' [" + hex(pos->base) +
                       ", " + hex(pos->limit) + ")");
  }
  map_.insert(pos, Mapping{base, limit, &dev});
  mru_.fill(Mru{});  // defensive: route the next access of each kind fresh
}

Device* Bus::device_at(std::uint32_t addr, std::uint32_t* offset) {
  // map_ is sorted by base and regions are disjoint: the candidate is the
  // last mapping whose base is <= addr.
  const auto pos = std::upper_bound(
      map_.begin(), map_.end(), addr,
      [](std::uint32_t a, const Mapping& m) { return a < m.base; });
  if (pos == map_.begin()) {
    return nullptr;
  }
  const Mapping& m = *std::prev(pos);
  if (addr >= m.limit) {
    return nullptr;
  }
  if (offset != nullptr) {
    *offset = addr - m.base;
  }
  return m.dev;
}

namespace {

[[nodiscard]] bool aligned(std::uint32_t addr, unsigned size) {
  return (size == 1 || size == 2 || size == 4) && addr % size == 0;
}

[[nodiscard]] MemResult fault_result(Fault f) {
  MemResult r;
  r.fault = f;
  return r;
}

}  // namespace

Device* Bus::route(std::uint32_t addr, unsigned size, Mru& memo,
                   std::uint32_t* offset, Fault* fault) {
  if (addr >= memo.base && addr < memo.limit && size <= memo.limit - addr) {
    *offset = addr - memo.base;
    return memo.dev;
  }
  Device* dev = device_at(addr, offset);
  if (dev == nullptr) {
    *fault = Fault::unmapped;
    return nullptr;
  }
  if (*offset + size > dev->size_bytes()) {
    *fault = Fault::misaligned;  // straddles the end of the device
    return nullptr;
  }
  memo = Mru{addr - *offset, addr - *offset + dev->size_bytes(), dev};
  return dev;
}

MemResult Bus::read(std::uint32_t addr, unsigned size, Access kind,
                    std::uint64_t now) {
  if (!aligned(addr, size)) {
    return fault_result(Fault::misaligned);
  }
  std::uint32_t offset = 0;
  Fault fault = Fault::none;
  Device* dev =
      route(addr, size, mru_[static_cast<unsigned>(kind)], &offset, &fault);
  if (dev == nullptr) {
    return fault_result(fault);
  }
  return dev->read(offset, size, kind, now);
}

MemResult Bus::write(std::uint32_t addr, unsigned size, std::uint32_t value,
                     std::uint64_t now) {
  if (!aligned(addr, size)) {
    return fault_result(Fault::misaligned);
  }
  std::uint32_t offset = 0;
  Fault fault = Fault::none;
  Device* dev = route(addr, size, mru_[static_cast<unsigned>(Access::write)],
                      &offset, &fault);
  if (dev == nullptr) {
    return fault_result(fault);
  }
  const MemResult r = dev->write(offset, size, value, now);
  if (r.ok()) {
    notify_snoop(addr, size);
  }
  return r;
}

bool Bus::load_image(std::uint32_t addr, const std::uint8_t* data,
                     std::uint32_t len) {
  for (std::uint32_t k = 0; k < len; ++k) {
    std::uint32_t offset = 0;
    Device* dev = device_at(addr + k, &offset);
    if (dev == nullptr) {
      notify_snoop(addr, k);  // partially programmed before the failure
      return false;
    }
    if (!dev->program(offset, data[k])) {
      notify_snoop(addr, k);
      return false;
    }
  }
  notify_snoop(addr, len);
  return true;
}

std::optional<std::uint32_t> Bus::fixed_fetch_cost(std::uint32_t addr,
                                                   unsigned size) {
  std::uint32_t offset = 0;
  Device* dev = device_at(addr, &offset);
  if (dev == nullptr || offset + size > dev->size_bytes()) {
    return std::nullopt;
  }
  return dev->fixed_fetch_cost(offset, size);
}

bool Bus::fetch_streamer(std::uint32_t addr, FetchStreamer* out) {
  std::uint32_t offset = 0;
  Device* dev = device_at(addr, &offset);
  if (dev == nullptr || !dev->fetch_streamer(out)) {
    *out = FetchStreamer{};
    return false;
  }
  out->base = addr - offset;
  return true;
}

bool Bus::direct_span(std::uint32_t addr, DirectSpan* out) {
  *out = DirectSpan{};
  std::uint32_t offset = 0;
  Device* dev = device_at(addr, &offset);
  if (dev == nullptr) {
    return false;  // size stays 0: not even negative-cacheable
  }
  const std::uint32_t base = addr - offset;
  if (!dev->direct_span(out)) {
    out->data = nullptr;
    out->base = base;
    out->size = dev->size_bytes();
    return false;
  }
  out->base = base;
  return true;
}

}  // namespace aces::mem
