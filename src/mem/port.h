// MemPort: the CPU-facing memory interface.
//
// A port takes absolute addresses. DirectPort forwards straight to the bus;
// Cache (cache.h) implements the same interface with a set-associative
// cache in front of the bus for a configurable address window.
#ifndef ACES_MEM_PORT_H
#define ACES_MEM_PORT_H

#include "mem/bus.h"
#include "mem/device.h"

namespace aces::mem {

class MemPort {
 public:
  virtual ~MemPort() = default;
  [[nodiscard]] virtual MemResult read(std::uint32_t addr, unsigned size,
                                       Access kind, std::uint64_t now) = 0;
  [[nodiscard]] virtual MemResult write(std::uint32_t addr, unsigned size,
                                        std::uint32_t value,
                                        std::uint64_t now) = 0;

  // Capability probe: true when the port adds no timing of its own, so the
  // bus's direct_span / fixed_fetch_cost / fetch_streamer answers are the
  // port's. Hot paths ask once instead of issuing doomed lookups per access.
  // Ports that interpose dynamic timing (caches) leave this false even
  // though their backing bus could answer.
  [[nodiscard]] virtual bool transparent() const { return false; }
  // Bus::direct_span semantics (negative-cacheable mapping range on a
  // decline). Default: no span, no range.
  virtual bool direct_span(std::uint32_t addr, DirectSpan* out) {
    (void)addr;
    *out = DirectSpan{};
    return false;
  }
  // Bus::fixed_fetch_cost semantics. Ports that add state-dependent timing
  // of their own (caches) must keep declining even when the backing device
  // would answer.
  [[nodiscard]] virtual std::optional<std::uint32_t> fixed_fetch_cost(
      std::uint32_t addr, unsigned size) {
    (void)addr;
    (void)size;
    return std::nullopt;
  }
  // Bus::fetch_streamer semantics. Ports that interpose timing of their own
  // (caches) must keep declining: the streamer is not what prices fetches.
  virtual bool fetch_streamer(std::uint32_t addr, FetchStreamer* out) {
    (void)addr;
    *out = FetchStreamer{};
    return false;
  }
};

class DirectPort final : public MemPort {
 public:
  explicit DirectPort(Bus& bus) : bus_(bus) {}

  [[nodiscard]] MemResult read(std::uint32_t addr, unsigned size, Access kind,
                               std::uint64_t now) override {
    return bus_.read(addr, size, kind, now);
  }
  [[nodiscard]] MemResult write(std::uint32_t addr, unsigned size,
                                std::uint32_t value,
                                std::uint64_t now) override {
    return bus_.write(addr, size, value, now);
  }

  [[nodiscard]] bool transparent() const override { return true; }
  bool direct_span(std::uint32_t addr, DirectSpan* out) override {
    return bus_.direct_span(addr, out);
  }
  [[nodiscard]] std::optional<std::uint32_t> fixed_fetch_cost(
      std::uint32_t addr, unsigned size) override {
    return bus_.fixed_fetch_cost(addr, size);
  }
  bool fetch_streamer(std::uint32_t addr, FetchStreamer* out) override {
    return bus_.fetch_streamer(addr, out);
  }

 private:
  Bus& bus_;
};

}  // namespace aces::mem

#endif  // ACES_MEM_PORT_H
