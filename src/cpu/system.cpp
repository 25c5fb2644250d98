#include "cpu/system.h"

#include <limits>

namespace aces::cpu {

System::System(const SystemBuilder& b)
    : name_(b.name_),
      clock_hz_(b.clock_hz_),
      flash_(b.flash_),
      sram_("sram", b.sram_bytes_),
      sram_base_(b.sram_base_),
      iport_direct_(bus_),
      dport_direct_(bus_) {
  // Memories.
  bus_.attach(b.flash_base_, flash_);
  bus_.attach(b.sram_base_, sram_);
  if (b.tcm_) {
    tcm_.emplace(*b.tcm_);
    bus_.attach(b.tcm_base_, *tcm_);
  }
  if (b.bitband_bytes_ != 0) {
    bitband_.emplace(sram_, b.bitband_bytes_);
    bus_.attach(b.bitband_base_, *bitband_);
  }

  // Peripherals: externally-owned devices, then builder-manufactured ones.
  for (const SystemBuilder::ExternalDevice& d : b.external_) {
    bus_.attach(d.base, *d.dev);
  }
  for (const SystemBuilder::OwnedDevice& d : b.owned_) {
    std::unique_ptr<mem::Device> dev = d.make();
    ACES_CHECK_MSG(dev != nullptr, "device factory returned nothing");
    bus_.attach(d.base, *dev);
    owned_devices_.push_back(std::move(dev));
  }

  // Cache layers in front of the bus.
  if (b.icache_) {
    mem::CacheConfig c = *b.icache_;
    c.cacheable_base = b.flash_base_;
    c.cacheable_limit = b.flash_base_ + b.flash_.size_bytes;
    icache_.emplace(c, bus_);
  }
  if (b.dcache_) {
    dcache_.emplace(*b.dcache_, bus_);
  }

  // Protection and fault-injection layers.
  if (b.mpu_) {
    mpu_.emplace(*b.mpu_);
  }
  if (b.injector_) {
    injector_.emplace(*b.injector_, support::Rng256(b.injector_seed_));
    if (icache_) {
      injector_->attach(*icache_);
    }
    if (dcache_) {
      injector_->attach(*dcache_);
    }
    if (tcm_) {
      injector_->attach(*tcm_);
    }
  }

  // Interrupt controller.
  if (b.vic_) {
    intc_ = std::make_unique<ClassicVic>(*b.vic_);
  } else if (b.ivc_) {
    intc_ = std::make_unique<Ivc>(*b.ivc_);
  }

  // The core, wired to whichever port stack the description called for.
  core_.emplace(b.core_,
                icache_ ? static_cast<mem::MemPort&>(*icache_)
                        : static_cast<mem::MemPort&>(iport_direct_),
                dcache_ ? static_cast<mem::MemPort&>(*dcache_)
                        : static_cast<mem::MemPort&>(dport_direct_));
  if (mpu_) {
    core_->set_mpu(&*mpu_);
  }
  if (intc_) {
    core_->set_interrupt_controller(intc_.get());
  }
  if (injector_) {
    core_->set_cycle_hook([this](std::uint64_t now) {
      (void)injector_->advance_to(now);
      if (user_hook_) {
        user_hook_(now);
      }
    });
    // Upsets flip bits behind the bus's back; cached decodes of the
    // affected code must be re-derived from the corrupted (or repaired)
    // contents exactly like an uncached fetch would see them.
    injector_->set_upset_hook([this] { core_->invalidate_decoded(); });
  }
  // Host-side pokes and image (re)loads through the bus invalidate cached
  // decodes and superblocks alike (the code cache is the snoop; there is
  // none on the uncached tier); the window check makes data-only writes
  // cost two compares.
  bus_.set_write_snoop(core_->code_cache());
}

void System::set_cycle_hook(Core::CycleHook hook) {
  if (injector_) {
    user_hook_ = std::move(hook);  // the composing hook is already installed
  } else {
    core_->set_cycle_hook(std::move(hook));
  }
}

void System::set_irq_handler(unsigned line, std::uint32_t handler) {
  Ivc* v = ivc();
  ACES_CHECK_MSG(v != nullptr,
                 "set_irq_handler needs an owned Ivc (builder .ivc(...))");
  const std::uint8_t bytes[4] = {
      static_cast<std::uint8_t>(handler),
      static_cast<std::uint8_t>(handler >> 8),
      static_cast<std::uint8_t>(handler >> 16),
      static_cast<std::uint8_t>(handler >> 24)};
  ACES_CHECK_MSG(bus_.load_image(v->vector_address(line), bytes, 4),
                 "vector table entry is outside the memory map");
}

SystemBinding& System::bind(sim::Simulation& sim) {
  return bind(sim, clock_hz_);
}

SystemBinding& System::bind(sim::Simulation& sim, std::uint64_t hz) {
  ACES_CHECK_MSG(binding_ == nullptr,
                 "System '" + name_ + "' is already bound to a simulation");
  ACES_CHECK_MSG(hz > 0,
                 "System '" + name_ +
                     "' has no clock rate: declare one with "
                     "SystemBuilder::clock_hz or pass it to bind()");
  ACES_CHECK_MSG(hz <= static_cast<std::uint64_t>(sim::kSecond),
                 "clock rates beyond 1 GHz exceed the 1 ns time base");
  binding_ = std::make_unique<SystemBinding>(*this, sim, hz);
  sim.add(*binding_);
  return *binding_;
}

// ----- SystemBinding ---------------------------------------------------------

SystemBinding::SystemBinding(System& sys, sim::Simulation& sim,
                             std::uint64_t hz)
    : sys_(sys), sim_(sim), hz_(hz) {}

sim::SimTime SystemBinding::time_of_cycles(std::uint64_t cycles) const {
  // Split to keep cycles * 1e9 inside 64 bits: the remainder term is
  // < hz * 1e9 <= 1e18.
  const std::uint64_t whole = cycles / hz_;
  const std::uint64_t rest = cycles % hz_;
  return static_cast<sim::SimTime>(
      whole * static_cast<std::uint64_t>(sim::kSecond) +
      rest * static_cast<std::uint64_t>(sim::kSecond) / hz_);
}

std::uint64_t SystemBinding::cycles_at(sim::SimTime t) const {
  // First cycle boundary at or after t (ceiling): a core advanced to
  // cycles_at(t) has reached time t, and the round trip through
  // time_of_cycles is exact at any frequency. This is also the instant the
  // pre-co-simulation cycle-hook bridging delivered events at.
  const std::uint64_t ns = static_cast<std::uint64_t>(t);
  const std::uint64_t whole = ns / static_cast<std::uint64_t>(sim::kSecond);
  const std::uint64_t rest = ns % static_cast<std::uint64_t>(sim::kSecond);
  return whole * hz_ +
         (rest * hz_ + static_cast<std::uint64_t>(sim::kSecond) - 1) /
             static_cast<std::uint64_t>(sim::kSecond);
}

bool SystemBinding::interrupt_deliverable() {
  InterruptController* intc = sys_.intc();
  return intc != nullptr && intc->would_preempt(sys_.core());
}

void SystemBinding::set_frozen(bool frozen) {
  if (frozen && !frozen_) {
    // Freeze at the present: sync a laggard cycle counter forward so the
    // frozen interval is invisible to cycle accounting when thawed.
    Core& core = sys_.core();
    const std::uint64_t now_cycles = cycles_at(sim_.now());
    if (core.cycles() < now_cycles) {
      stats_.idle_cycles += now_cycles - core.cycles();
      core.add_cycles(now_cycles - core.cycles());
    }
  }
  frozen_ = frozen;
}

void SystemBinding::advance_to(sim::SimTime t) {
  Core& core = sys_.core();
  const std::uint64_t cycle_target = cycles_at(t);
  if (frozen_) {
    if (core.cycles() < cycle_target) {
      stats_.idle_cycles += cycle_target - core.cycles();
      core.add_cycles(cycle_target - core.cycles());
    }
    return;
  }
  while (core.halt_reason() == HaltReason::none &&
         core.cycles() < cycle_target) {
    if (core.waiting_for_interrupt() && !interrupt_deliverable()) {
      // Sleep straight through to the slice target: zero host work until
      // an event (via raise_irq) wakes the guest.
      stats_.idle_cycles += cycle_target - core.cycles();
      core.add_cycles(cycle_target - core.cycles());
      return;
    }
    // Batch the whole slice into the core: the superblock tier stays in
    // block dispatch between boundaries instead of paying step() overhead
    // per instruction. `steps` counts retired instructions.
    const std::uint64_t before = core.instructions();
    (void)core.run_chunk(std::numeric_limits<std::uint64_t>::max(),
                         cycle_target);
    stats_.steps += core.instructions() - before;
  }
}

sim::SimTime SystemBinding::next_activity() {
  Core& core = sys_.core();
  if (frozen_ || core.halt_reason() != HaltReason::none) {
    return sim::kNever;
  }
  if (core.waiting_for_interrupt() && !interrupt_deliverable()) {
    return sim::kNever;
  }
  return local_time();
}

void SystemBinding::raise_irq(unsigned line) {
  ACES_CHECK_MSG(sys_.intc() != nullptr,
                 "System '" + sys_.name() +
                     "' has no interrupt controller to deliver line " +
                     std::to_string(line) + " to");
  Core& core = sys_.core();
  if (frozen_) {
    // A dead core latches nothing: the raise is lost, and a reboot starts
    // from a clean interrupt state.
    ++stats_.frozen_irq_drops;
    return;
  }
  ++stats_.irq_raises;
  if (core.waiting_for_interrupt()) {
    // A sleeping core's counter may lag the global clock (its window slice
    // has not run yet) or lead it (it was bulk fast-forwarded past an
    // event that was only created mid-window). Sync a laggard forward, and
    // stamp the raise at the true event instant either way, so the latency
    // measurement starts when the interrupt physically arrived — including
    // any quantum-late wakeup of an over-slept core.
    const std::uint64_t now_cycles = cycles_at(sim_.now());
    if (core.cycles() < now_cycles) {
      stats_.idle_cycles += now_cycles - core.cycles();
      core.add_cycles(now_cycles - core.cycles());
    }
    sys_.intc()->raise(line, now_cycles);
    return;
  }
  sys_.intc()->raise(line, core.cycles());
}

void SystemBinding::clear_irq(unsigned line) {
  if (sys_.intc() != nullptr) {
    sys_.intc()->clear(line);
  }
}

}  // namespace aces::cpu
