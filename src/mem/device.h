// Memory access primitives shared by every device model.
//
// All memory traffic in ACES flows through MemResult-returning accessors so
// that timing (cycles), modeled hardware faults (bus errors, MPU violations)
// and soft-error effects (detected parity hits, silent corruption) are
// explicit values, never C++ exceptions.
#ifndef ACES_MEM_DEVICE_H
#define ACES_MEM_DEVICE_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace aces::mem {

enum class Access : std::uint8_t {
  read,   // data load
  write,  // data store
  fetch,  // instruction fetch
};

[[nodiscard]] constexpr std::string_view access_name(Access a) {
  switch (a) {
    case Access::read: return "read";
    case Access::write: return "write";
    case Access::fetch: return "fetch";
  }
  return "?";
}

enum class Fault : std::uint8_t {
  none,
  unmapped,        // no device at this address
  misaligned,      // access crosses a device boundary or violates alignment
  readonly,        // write to a read-only device (e.g. flash at runtime)
  mpu_violation,   // blocked by the memory protection unit
  parity,          // detected-but-unrecovered soft error (FT data aborts)
};

[[nodiscard]] constexpr std::string_view fault_name(Fault f) {
  switch (f) {
    case Fault::none: return "none";
    case Fault::unmapped: return "unmapped";
    case Fault::misaligned: return "misaligned";
    case Fault::readonly: return "readonly";
    case Fault::mpu_violation: return "mpu-violation";
    case Fault::parity: return "parity";
  }
  return "?";
}

// Result of one memory transaction.
struct MemResult {
  std::uint32_t value = 0;    // data for reads/fetches
  std::uint32_t cycles = 1;   // bus cycles consumed
  Fault fault = Fault::none;
  // A soft error was detected and transparently corrected/recovered
  // (TCM hold-and-repair, I-cache invalidate-and-refill). Cycles already
  // include the recovery penalty.
  bool soft_error_recovered = false;
  // The returned value is corrupted and nothing detected it (fault-tolerance
  // disabled). Tests use this to prove the FT machinery is load-bearing;
  // real software would simply consume the bad value.
  bool silently_corrupt = false;

  [[nodiscard]] bool ok() const { return fault == Fault::none; }
};

// A window of raw host storage backing a RAM-like device: a fixed cycle
// cost per access, no access side effects, and contents that change only
// through writes. Devices that can honor that contract (plain SRAM) expose
// a span so hot CPU paths can bypass virtual dispatch entirely; devices
// with dynamic timing or access side effects (the flash prefetch streamer,
// caches, fault-tolerant TCM) must decline.
struct DirectSpan {
  std::uint8_t* data = nullptr;   // host storage for guest address `base`
  std::uint32_t base = 0;         // guest base address of the span
  std::uint32_t size = 0;         // bytes covered (0: no span)
  std::uint32_t read_cycles = 1;  // fixed cost of one read, any size
  std::uint32_t write_cycles = 1;
  bool writable = false;
};

class Flash;

// A flash's instruction-side prefetch streamer, handed to a core so it can
// run the streamer protocol inline (Flash::stream_fetch) for instructions
// it already decoded, and decode ahead from the side-effect-free
// Flash::peek. Cycles and streamer statistics stay exactly those of real
// fetch reads; only the route through the port and bus is skipped.
struct FetchStreamer {
  Flash* flash = nullptr;  // nullptr: no streamer
  std::uint32_t base = 0;  // guest address of flash offset 0
  std::uint32_t size = 0;  // bytes covered
};

// Abstract memory-mapped device. Addresses are device-relative; `size` is
// 1, 2 or 4 and accesses are naturally aligned (the Bus enforces this).
// `now` is the core's current cycle count, used by devices with background
// activity (the flash prefetch streamer).
class Device {
 public:
  virtual ~Device() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::uint32_t size_bytes() const = 0;

  [[nodiscard]] virtual MemResult read(std::uint32_t addr, unsigned size,
                                       Access kind, std::uint64_t now) = 0;
  [[nodiscard]] virtual MemResult write(std::uint32_t addr, unsigned size,
                                        std::uint32_t value,
                                        std::uint64_t now) = 0;

  // Loader/debugger backdoor: stores one byte with no timing or protection
  // side effects (how a programmer writes flash before the system runs).
  // Returns false for devices without backing storage (aliases, peripherals
  // that reject it).
  virtual bool program(std::uint32_t addr, std::uint8_t byte) {
    (void)addr;
    (void)byte;
    return false;
  }

  // Fast-path opt-in: fills `out` (with `base` left device-relative 0; the
  // bus rebases it) when the device honors the DirectSpan contract above.
  // Default: decline.
  virtual bool direct_span(DirectSpan* out) {
    (void)out;
    return false;
  }

  // If the cycle cost of an instruction fetch of `size` bytes at the
  // device-relative address is provably independent of device state (and
  // the fetch has no state the rest of the model can observe through
  // cycles), returns that cost; the core may then charge it for cached
  // instructions without performing the access. Devices with history-
  // dependent fetch timing must decline. Default: decline.
  [[nodiscard]] virtual std::optional<std::uint32_t> fixed_fetch_cost(
      std::uint32_t addr, unsigned size) const {
    (void)addr;
    (void)size;
    return std::nullopt;
  }

  // Fast-path opt-in for history-dependent instruction fetch timing: fills
  // `out` (base left device-relative 0; the bus rebases it) when the device
  // is a flash whose streamer prices fetches. Default: decline.
  virtual bool fetch_streamer(FetchStreamer* out) {
    (void)out;
    return false;
  }
};

}  // namespace aces::mem

#endif  // ACES_MEM_DEVICE_H
