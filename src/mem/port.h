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

  // Capability probe: the bus behind a port that adds no timing of its
  // own, whose Bus::direct_span / fixed_fetch_cost / fetch_streamer
  // answers are then the port's; nullptr for a port that interposes
  // dynamic timing (a cache), even though its backing bus could answer.
  // Hot paths ask once instead of issuing doomed lookups per access.
  [[nodiscard]] virtual Bus* transparent_bus() const { return nullptr; }
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

  [[nodiscard]] Bus* transparent_bus() const override { return &bus_; }

 private:
  Bus& bus_;
};

}  // namespace aces::mem

#endif  // ACES_MEM_PORT_H
