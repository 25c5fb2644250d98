// Declarative single-ECU system construction.
//
// Automotive MCUs are *configurations*: the same UC32 core composed with
// different memories, protection hardware and network peripherals per ECU
// role. SystemBuilder is the machine-description layer that captures one
// such configuration as a value — memories at arbitrary bases, optional
// caches, an MPU, a soft-error injector, an interrupt controller and any
// number of memory-mapped peripherals — and System is the thin facade that
// instantiates and wires it.
//
// Default address map (every base is overridable per build):
//   0x0000'0000  flash          (code + literal pools + vector tables)
//   0x1000'0000  TCM            (optional)
//   0x2000'0000  SRAM           (data + stacks)
//   0x2200'0000  bit-band alias (optional, over the first SRAM bytes)
//   0x4000'0000  peripherals    (by convention; attach anything anywhere)
//
// A builder is a pure description: copyable, reusable, comparable across
// experiments. Building twice yields two independent systems. The three
// paper profiles (legacy W32/N16, cached HP, modern B32) live as named
// presets in cpu/profiles.h.
//
//   cpu::System sys(cpu::profiles::modern_mcu()
//                       .flash_size(128 * 1024)
//                       .bitband(0x1000)
//                       .device(0x4000'0000, can_controller));
#ifndef ACES_CPU_SYSTEM_H
#define ACES_CPU_SYSTEM_H

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cpu/core.h"
#include "cpu/ivc.h"
#include "cpu/vic.h"
#include "isa/assembler.h"
#include "mem/bitband.h"
#include "mem/bus.h"
#include "mem/cache.h"
#include "mem/fault_injector.h"
#include "mem/flash.h"
#include "mem/mpu.h"
#include "mem/sram.h"
#include "mem/tcm.h"
#include "sim/simulation.h"

namespace aces::cpu {

inline constexpr std::uint32_t kFlashBase = 0x0000'0000u;
inline constexpr std::uint32_t kTcmBase = 0x1000'0000u;
inline constexpr std::uint32_t kSramBase = 0x2000'0000u;
inline constexpr std::uint32_t kBitBandBase = 0x2200'0000u;
inline constexpr std::uint32_t kPeriphBase = 0x4000'0000u;

class System;
class SystemBinding;

class SystemBuilder {
 public:
  // Factory for a device the built System will own (keeps the builder
  // copyable: each build() manufactures a fresh instance).
  using DeviceFactory = std::function<std::unique_ptr<mem::Device>()>;

  SystemBuilder() = default;

  // ----- identity / clocking -----
  // Display name for co-simulation diagnostics ("door", "gateway", ...).
  SystemBuilder& name(std::string n) { name_ = std::move(n); return *this; }
  [[nodiscard]] const std::string& name() const { return name_; }
  // Core clock frequency. This is what places the core's cycle counter on
  // the shared co-simulation time base when the built System is bound to a
  // sim::Simulation; the named profiles declare generation-typical
  // defaults.
  SystemBuilder& clock_hz(std::uint64_t hz) { clock_hz_ = hz; return *this; }
  [[nodiscard]] std::uint64_t clock_hz() const { return clock_hz_; }

  // ----- core -----
  SystemBuilder& core(const CoreConfig& c) { core_ = c; return *this; }
  SystemBuilder& encoding(isa::Encoding e) { core_.encoding = e; return *this; }
  SystemBuilder& timings(const CoreTimings& t) { core_.timings = t; return *this; }
  SystemBuilder& restartable_ldm(bool on = true) {
    core_.restartable_ldm = on;
    return *this;
  }
  SystemBuilder& privileged(bool on) { core_.privileged = on; return *this; }
  // Host-side dispatch speed tier (off / per_insn / superblock); modeled
  // cycles are identical on every tier. Defaults to superblock; `off`
  // decodes from scratch every step (the differential-test reference).
  SystemBuilder& dispatch_tier(DispatchTier tier) {
    core_.dispatch_tier = tier;
    return *this;
  }

  // ----- memories -----
  SystemBuilder& flash(const mem::FlashConfig& c,
                       std::uint32_t base = kFlashBase) {
    flash_ = c;
    flash_base_ = base;
    return *this;
  }
  SystemBuilder& flash_size(std::uint32_t bytes) {
    flash_.size_bytes = bytes;
    return *this;
  }
  SystemBuilder& flash_wait(std::uint32_t line_access_cycles) {
    flash_.line_access_cycles = line_access_cycles;
    return *this;
  }
  SystemBuilder& flash_dual_buffer(bool on = true) {
    flash_.dual_buffer = on;
    return *this;
  }
  SystemBuilder& sram(std::uint32_t bytes, std::uint32_t base = kSramBase) {
    sram_bytes_ = bytes;
    sram_base_ = base;
    return *this;
  }
  SystemBuilder& tcm(const mem::TcmConfig& c, std::uint32_t base = kTcmBase) {
    tcm_ = c;
    tcm_base_ = base;
    return *this;
  }
  // The I-cache window is clamped to the flash region (instructions only);
  // the D-cache window is taken from the config verbatim.
  SystemBuilder& icache(const mem::CacheConfig& c) { icache_ = c; return *this; }
  SystemBuilder& dcache(const mem::CacheConfig& c) { dcache_ = c; return *this; }
  SystemBuilder& bitband(std::uint32_t bytes,
                         std::uint32_t base = kBitBandBase) {
    bitband_bytes_ = bytes;
    bitband_base_ = base;
    return *this;
  }

  // ----- protection / fault layers -----
  SystemBuilder& mpu(const mem::MpuConfig& c) { mpu_ = c; return *this; }
  // The built System owns the injector, attaches every cache/TCM it builds
  // and advances it from the core's cycle hook — no manual plumbing.
  SystemBuilder& fault_injector(const mem::FaultInjectorConfig& c,
                                std::uint64_t seed) {
    injector_ = c;
    injector_seed_ = seed;
    return *this;
  }

  // ----- peripherals -----
  // Attaches an externally-owned device (must outlive the built System).
  SystemBuilder& device(std::uint32_t base, mem::Device& dev) {
    external_.push_back(ExternalDevice{base, &dev});
    return *this;
  }
  // Attaches a device the System will own; `make` runs once per build().
  SystemBuilder& device(std::uint32_t base, DeviceFactory make) {
    owned_.push_back(OwnedDevice{base, std::move(make)});
    return *this;
  }

  // ----- interrupt controller (owned by the built System) -----
  SystemBuilder& vic(const ClassicVic::Config& c) {
    vic_ = c;
    ivc_.reset();
    return *this;
  }
  SystemBuilder& ivc(const Ivc::Config& c) {
    ivc_ = c;
    vic_.reset();
    return *this;
  }

  // Materializes the description (guaranteed copy elision: the System is
  // constructed in place at the call site, never moved).
  [[nodiscard]] System build() const;

 private:
  friend class System;

  struct ExternalDevice {
    std::uint32_t base = 0;
    mem::Device* dev = nullptr;
  };
  struct OwnedDevice {
    std::uint32_t base = 0;
    DeviceFactory make;
  };

  std::string name_ = "ecu";
  std::uint64_t clock_hz_ = 0;  // 0: bind() requires an explicit rate
  CoreConfig core_;
  mem::FlashConfig flash_;
  std::uint32_t flash_base_ = kFlashBase;
  std::uint32_t sram_bytes_ = 64 * 1024;
  std::uint32_t sram_base_ = kSramBase;
  std::optional<mem::TcmConfig> tcm_;
  std::uint32_t tcm_base_ = kTcmBase;
  std::optional<mem::CacheConfig> icache_;
  std::optional<mem::CacheConfig> dcache_;
  std::uint32_t bitband_bytes_ = 0;
  std::uint32_t bitband_base_ = kBitBandBase;
  std::optional<mem::MpuConfig> mpu_;
  std::optional<mem::FaultInjectorConfig> injector_;
  std::uint64_t injector_seed_ = 1;
  std::vector<ExternalDevice> external_;
  std::vector<OwnedDevice> owned_;
  std::optional<ClassicVic::Config> vic_;
  std::optional<Ivc::Config> ivc_;
};

// The instantiated machine. Thin facade: owns the devices the builder
// described, wires them to one core, and exposes load/run conveniences.
// Pinned in memory (internal wiring holds references into the object).
class System {
 public:
  explicit System(const SystemBuilder& builder);

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // Loads an assembled image (usually into flash).
  void load(const isa::Image& image) {
    ACES_CHECK_MSG(
        bus_.load_image(image.base, image.bytes.data(), image.size()),
        "image does not fit the memory map");
  }

  // Convenience: reset to `entry` with the stack at the top of SRAM, pass
  // up to four arguments (the UC32 register-argument limit), run, and
  // return r0.
  std::uint32_t call(std::uint32_t entry,
                     std::initializer_list<std::uint32_t> args = {},
                     std::uint64_t max_insns = 10'000'000) {
    ACES_CHECK_MSG(args.size() <= 4,
                   "call() passes arguments in r0-r3; got " +
                       std::to_string(args.size()) +
                       " (spill further arguments to memory)");
    core_->reset(entry, initial_sp());
    unsigned k = 0;
    for (const std::uint32_t a : args) {
      core_->set_reg(static_cast<isa::Reg>(k++), a);
    }
    const HaltReason r = core_->run(max_insns);
    ACES_CHECK_MSG(r == HaltReason::exited,
                   "program did not exit cleanly (halt reason " +
                       std::to_string(static_cast<int>(r)) + ")");
    return core_->reg(isa::r0);
  }

  [[nodiscard]] std::uint32_t initial_sp() const {
    return sram_base_ + sram_.size_bytes();
  }

  // Cycle hook that composes with the built-in fault injector: the
  // injector (if configured) advances first, then `hook` runs. Prefer this
  // over core().set_cycle_hook(), which would silently disconnect the
  // injector.
  void set_cycle_hook(Core::CycleHook hook);

  // Joins a co-simulation as a cycle-accurate clocked participant. The
  // returned binding (owned by the System, registered with `sim`) places
  // the core's cycle counter on the shared nanosecond time base and is the
  // sim::IrqSink peripherals deliver interrupt lines through — no manual
  // cycle-hook/queue bridging. The one-argument form uses the clock rate
  // declared in the builder (SystemBuilder::clock_hz / the profiles).
  SystemBinding& bind(sim::Simulation& sim);
  SystemBinding& bind(sim::Simulation& sim, std::uint64_t hz);
  [[nodiscard]] SystemBinding* binding() { return binding_.get(); }

  // Installs `handler` as the vector-table entry for `line` of the owned
  // Ivc (little-endian word written through the bus — what boot code would
  // do before enabling the line).
  void set_irq_handler(unsigned line, std::uint32_t handler);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t clock_hz() const { return clock_hz_; }

  [[nodiscard]] Core& core() { return *core_; }
  [[nodiscard]] mem::Bus& bus() { return bus_; }
  [[nodiscard]] mem::Flash& flash() { return flash_; }
  [[nodiscard]] mem::Sram& sram() { return sram_; }
  [[nodiscard]] mem::Tcm* tcm() { return tcm_ ? &*tcm_ : nullptr; }
  [[nodiscard]] mem::Cache* icache() { return icache_ ? &*icache_ : nullptr; }
  [[nodiscard]] mem::Cache* dcache() { return dcache_ ? &*dcache_ : nullptr; }
  [[nodiscard]] mem::Mpu* mpu() { return mpu_ ? &*mpu_ : nullptr; }
  [[nodiscard]] mem::FaultInjector* fault_injector() {
    return injector_ ? &*injector_ : nullptr;
  }
  [[nodiscard]] InterruptController* intc() { return intc_.get(); }
  [[nodiscard]] ClassicVic* vic() {
    return dynamic_cast<ClassicVic*>(intc_.get());
  }
  [[nodiscard]] Ivc* ivc() { return dynamic_cast<Ivc*>(intc_.get()); }

 private:
  std::string name_;
  std::uint64_t clock_hz_ = 0;
  mem::Bus bus_;
  mem::Flash flash_;
  mem::Sram sram_;
  std::uint32_t sram_base_ = kSramBase;
  std::optional<mem::Tcm> tcm_;
  std::optional<mem::BitBandAlias> bitband_;
  std::vector<std::unique_ptr<mem::Device>> owned_devices_;
  mem::DirectPort iport_direct_;
  mem::DirectPort dport_direct_;
  std::optional<mem::Cache> icache_;
  std::optional<mem::Cache> dcache_;
  std::optional<mem::Mpu> mpu_;
  std::optional<mem::FaultInjector> injector_;
  std::unique_ptr<InterruptController> intc_;
  std::optional<Core> core_;
  Core::CycleHook user_hook_;
  std::unique_ptr<SystemBinding> binding_;
};

// Clock-domain bridge created by System::bind: presents a cycle-accurate
// System as a sim::Clocked participant (cycles <-> nanoseconds at the
// declared frequency) and as the sim::IrqSink peripherals raise interrupt
// lines through.
//
// Scheduling behavior:
//   - while the guest runs, advance_to steps the core until its local time
//     reaches the slice target (the core may overshoot by the tail of a
//     multi-cycle instruction; the next slice absorbs it);
//   - while the guest sleeps in WFI with no deliverable interrupt (and
//     after a clean exit), next_activity reports sim::kNever and advance_to
//     bulk-advances the cycle counter — an idle ECU costs zero host work;
//   - raise_irq first syncs a sleeping core's cycle counter to the present,
//     so interrupt latency accounting starts at the true raise instant.
class SystemBinding final : public sim::Clocked, public sim::IrqSink {
 public:
  SystemBinding(System& sys, sim::Simulation& sim, std::uint64_t hz);

  SystemBinding(const SystemBinding&) = delete;
  SystemBinding& operator=(const SystemBinding&) = delete;

  // ----- sim::Clocked -----
  [[nodiscard]] std::string_view name() const override {
    return sys_.name();
  }
  void advance_to(sim::SimTime t) override;
  [[nodiscard]] sim::SimTime next_activity() override;

  // ----- sim::IrqSink -----
  void raise_irq(unsigned line) override;
  void clear_irq(unsigned line) override;

  // ----- clock-domain conversions (pure integer, overflow-safe) -----
  [[nodiscard]] std::uint64_t hz() const noexcept { return hz_; }
  // Start time of cycle `cycles` (floor to the ns grid).
  [[nodiscard]] sim::SimTime time_of_cycles(std::uint64_t cycles) const;
  // First cycle boundary at or after `t`; exact inverse of time_of_cycles.
  [[nodiscard]] std::uint64_t cycles_at(sim::SimTime t) const;
  // The core's position on the shared time base.
  [[nodiscard]] sim::SimTime local_time() const {
    return time_of_cycles(sys_.core().cycles());
  }

  [[nodiscard]] System& system() noexcept { return sys_; }
  [[nodiscard]] sim::Simulation& simulation() noexcept { return sim_; }

  struct Stats {
    std::uint64_t steps = 0;        // core instructions/interrupts stepped
    std::uint64_t idle_cycles = 0;  // cycles slept through without stepping
    std::uint64_t irq_raises = 0;
    std::uint64_t frozen_irq_drops = 0;  // raises lost while frozen
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  // ----- node-fault support (net::IssEcuNode) -----
  // A frozen binding models a crashed or hung core: advance_to only syncs
  // the local cycle counter (zero guest work), next_activity reports
  // sim::kNever, and raise_irq drops the line (counted). Thawing resumes
  // the core wherever it was — callers modeling a reboot reset it
  // explicitly.
  void set_frozen(bool frozen);
  [[nodiscard]] bool frozen() const noexcept { return frozen_; }

 private:
  [[nodiscard]] bool interrupt_deliverable();

  System& sys_;
  sim::Simulation& sim_;
  std::uint64_t hz_;
  Stats stats_;
  bool frozen_ = false;
};

inline System SystemBuilder::build() const { return System(*this); }

}  // namespace aces::cpu

#endif  // ACES_CPU_SYSTEM_H
