#include "cpu/core.h"

#include <algorithm>

#include <limits>

#include "cpu/fpb.h"
#include "cpu/hostmem.h"
#include "cpu/intc.h"
#include "cpu/semantics.h"
#include "mem/flash.h"
#include "support/bits.h"
#include "support/check.h"

namespace aces::cpu {

using isa::Cond;
using isa::Instruction;
using isa::Op;
using isa::SetFlags;
using support::sign_extend;

using hostmem::load_le;
using hostmem::span_covers;
using hostmem::store_le;

Core::Core(CoreConfig config, mem::MemPort& ifetch, mem::MemPort& data)
    : config_(config),
      codec_(isa::codec_for(config.encoding)),
      fetch_unit_(config.encoding == isa::Encoding::w32 ? 4 : 2),
      ifetch_(ifetch),
      data_(data),
      ibus_(ifetch.transparent_bus()),
      dbus_(data.transparent_bus()),
      // Behind an ifetch port with timing of its own (an I-cache) no fetch
      // cost is reproducible without the port, so no block could ever form.
      tier_(config.dispatch_tier == DispatchTier::superblock &&
                    ibus_ == nullptr
                ? DispatchTier::per_insn
                : config.dispatch_tier) {
  privileged_ = config_.privileged;
  if (tier_ != DispatchTier::off) {
    code_.emplace(fetch_unit_ / 2,  // log2 of the unit
                  tier_ == DispatchTier::superblock);
  }
}

void Core::reset(std::uint32_t entry_pc, std::uint32_t initial_sp) {
  regs_.fill(0);
  regs_[isa::pc] = entry_pc;
  regs_[isa::sp] = initial_sp;
  regs_[isa::lr] = kExitReturn;
  flags_ = isa::Flags{};
  privileged_ = config_.privileged;
  irq_enabled_ = true;
  wfi_ = false;
  clear_it_state();
  halt_ = HaltReason::none;
  fault_info_ = CoreFault{};
  // A reset is a reboot: callers commonly reload images through backdoors
  // the snoops don't see from a standalone core, so start decoding fresh.
  sb_resume_block_ = nullptr;
  invalidate_decoded();
}

// ----- memory helpers --------------------------------------------------------

bool Core::acquire_data_span(std::uint32_t addr) {
  if (dbus_ == nullptr || addr - nospan_base_ < nospan_size_) {
    return false;
  }
  mem::DirectSpan s;
  if (dbus_->direct_span(addr, &s) && s.data != nullptr && s.size >= 4) {
    dspan_ = s;
    return true;
  }
  if (s.size != 0) {
    // Mapped, but the device declined: negative-cache the window so
    // peripheral traffic stops probing.
    nospan_base_ = s.base;
    nospan_size_ = s.size;
  }
  return false;
}

bool Core::mem_read(std::uint32_t addr, unsigned size, std::uint32_t* value,
                    std::uint32_t* cycles, bool do_sign_extend,
                    unsigned ext_bits) {
  if (mpu_ != nullptr &&
      mpu_->check(addr, size, mem::Access::read, privileged_) !=
          mem::Fault::none) {
    do_fault(mem::Fault::mpu_violation, addr, mem::Access::read);
    return false;
  }
  if (span_covers(dspan_, addr, size) ||
      (acquire_data_span(addr) && span_covers(dspan_, addr, size))) {
    const std::uint32_t raw = load_le(dspan_.data + (addr - dspan_.base), size);
    *cycles += dspan_.read_cycles;
    *value = do_sign_extend
                 ? static_cast<std::uint32_t>(sign_extend(raw, ext_bits))
                 : raw;
    ++stats_.loads;
    return true;
  }
  const mem::MemResult r = data_.read(addr, size, mem::Access::read, cycles_);
  *cycles += r.cycles;
  if (!r.ok()) {
    do_fault(r.fault, addr, mem::Access::read);
    return false;
  }
  *value = do_sign_extend
               ? static_cast<std::uint32_t>(sign_extend(r.value, ext_bits))
               : r.value;
  ++stats_.loads;
  return true;
}

bool Core::mem_write(std::uint32_t addr, unsigned size, std::uint32_t value,
                     std::uint32_t* cycles) {
  if (mpu_ != nullptr &&
      mpu_->check(addr, size, mem::Access::write, privileged_) !=
          mem::Fault::none) {
    do_fault(mem::Fault::mpu_violation, addr, mem::Access::write);
    return false;
  }
  if ((span_covers(dspan_, addr, size) ||
       (acquire_data_span(addr) && span_covers(dspan_, addr, size))) &&
      dspan_.writable) {
    store_le(dspan_.data + (addr - dspan_.base), size, value);
    *cycles += dspan_.write_cycles;
  } else {
    const mem::MemResult r = data_.write(addr, size, value, cycles_);
    *cycles += r.cycles;
    if (!r.ok()) {
      do_fault(r.fault, addr, mem::Access::write);
      return false;
    }
  }
  // Self-modifying code: the store may overwrite instructions this core has
  // already decoded (two compares when it doesn't, which is almost always).
  if (code_) {
    code_->snoop_write(addr, size);
  }
  ++stats_.stores;
  return true;
}

bool Core::push_word(std::uint32_t value) {
  std::uint32_t cycles = 0;
  regs_[isa::sp] -= 4;
  const bool ok = mem_write(regs_[isa::sp], 4, value, &cycles);
  cycles_ += cycles;
  return ok;
}

bool Core::pop_word(std::uint32_t* value) {
  std::uint32_t cycles = 0;
  const bool ok = mem_read(regs_[isa::sp], 4, value, &cycles, false, 32);
  regs_[isa::sp] += 4;
  cycles_ += cycles;
  return ok;
}

std::optional<std::uint32_t> Core::read_vector(std::uint32_t addr) {
  const mem::MemResult r = data_.read(addr, 4, mem::Access::read, cycles_);
  cycles_ += r.cycles;
  if (!r.ok()) {
    do_fault(r.fault, addr, mem::Access::read);
    return std::nullopt;
  }
  return r.value;
}

void Core::do_fault(mem::Fault kind, std::uint32_t addr, mem::Access access) {
  fault_info_ = CoreFault{kind, addr, cur_pc_, access};
  if (has_fault_handler_) {
    // Minimal precise-fault model: save return address in lr (magic-tagged)
    // and vector to the handler in privileged mode. The OSEK kernel model
    // uses this to kill the offending task.
    regs_[isa::lr] = kExitReturn;  // fault handlers end the enclosing run
    regs_[isa::pc] = fault_handler_pc_;
    privileged_ = true;
    clear_it_state();
    cycles_ += config_.timings.exception_entry_base +
               config_.timings.branch_taken_penalty;
    return;
  }
  halt(HaltReason::fault);
}

// ----- IT blocks ---------------------------------------------------------------

void Core::start_it(const Instruction& it) {
  const auto fc = static_cast<std::uint8_t>(it.cond);
  const std::uint8_t mask = it.it_mask & 0xF;
  // The block length is encoded by the position of the lowest set bit
  // (the terminator): n = 4 - lowest_set_bit_index.
  int n = 0;
  for (int b = 0; b <= 3; ++b) {
    if ((mask >> b) & 1u) {
      n = 4 - b;
      break;
    }
  }
  it_conds_[0] = it.cond;
  for (int k = 1; k < n; ++k) {
    const std::uint8_t low = (mask >> (4 - k)) & 1u;
    it_conds_[static_cast<std::size_t>(k)] =
        static_cast<Cond>((fc & 0xEu) | low);
  }
  it_pos_ = 0;
  it_remaining_ = static_cast<std::uint8_t>(n);
}

std::uint32_t Core::pack_psr() const {
  std::uint32_t psr = 0;
  psr |= flags_.n ? (1u << 31) : 0;
  psr |= flags_.z ? (1u << 30) : 0;
  psr |= flags_.c ? (1u << 29) : 0;
  psr |= flags_.v ? (1u << 28) : 0;
  psr |= privileged_ ? (1u << 16) : 0;
  psr |= irq_enabled_ ? (1u << 17) : 0;
  psr |= static_cast<std::uint32_t>(it_pos_ & 3u) << 18;
  psr |= static_cast<std::uint32_t>(it_remaining_ & 7u) << 20;
  for (unsigned k = 0; k < 4; ++k) {
    psr |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(it_conds_[k]) & 0xFu)
           << (4 * k);
  }
  return psr;
}

void Core::restore_psr(std::uint32_t psr) {
  flags_.n = (psr >> 31) & 1u;
  flags_.z = (psr >> 30) & 1u;
  flags_.c = (psr >> 29) & 1u;
  flags_.v = (psr >> 28) & 1u;
  privileged_ = (psr >> 16) & 1u;
  irq_enabled_ = (psr >> 17) & 1u;
  it_pos_ = static_cast<std::uint8_t>((psr >> 18) & 3u);
  it_remaining_ = static_cast<std::uint8_t>((psr >> 20) & 7u);
  for (unsigned k = 0; k < 4; ++k) {
    it_conds_[k] = static_cast<Cond>((psr >> (4 * k)) & 0xFu);
  }
}

// ----- timing helpers -----------------------------------------------------------

std::uint32_t Core::mul_cycles(std::uint32_t operand) const {
  const CoreTimings& t = config_.timings;
  if (!t.mul_early_termination) {
    return t.mul_base;
  }
  const unsigned sig_bits = 32 - support::count_leading_zeros(operand);
  return t.mul_base + t.mul_per_byte * ((sig_bits + 7) / 8);
}

std::uint32_t Core::div_cycles(std::uint32_t dividend) const {
  const CoreTimings& t = config_.timings;
  const unsigned sig_bits = 32 - support::count_leading_zeros(dividend);
  return t.div_base + sig_bits / std::max(1u, t.div_bits_per_cycle);
}

// ----- fetch ---------------------------------------------------------------------

bool Core::fetch(std::uint32_t pc, FetchMode mode, Decoded* out,
                 std::uint32_t* cycles, FetchReplay* replay) {
  const bool probe = mode == FetchMode::probe;
  *cycles = 0;
  if (mode != FetchMode::replay) {
    // Flash-patch lookup bypasses memory (served from patch RAM in 1 cycle).
    if (fpb_ != nullptr) {
      if (const auto patch = fpb_->lookup(pc)) {
        if (patch->breakpoint) {
          if (!probe) {
            halt(HaltReason::breakpoint);
          }
          return false;
        }
        out->insn = patch->replacement;
        out->size = patch->replacement_size;
        *cycles = 1;
        *replay = FetchReplay::fixed;
        return true;
      }
    }
    if (mpu_ != nullptr &&
        mpu_->check(pc, fetch_unit_, mem::Access::fetch, privileged_) !=
            mem::Fault::none) {
      if (!probe) {
        do_fault(mem::Fault::mpu_violation, pc, mem::Access::fetch);
      }
      return false;
    }
  }
  // The state-free price of the reads so far (SRAM; flash in its 1-cycle or
  // prefetch-off regimes), asked before each read; nullopt once any read's
  // cost depends on device state. Only worth asking when the answer can be
  // cached, and only a port without timing of its own can give it.
  std::optional<std::uint32_t> price;
  if (ibus_ != nullptr && (probe || (mode == FetchMode::run && code_))) {
    price = 0;
  }
  std::uint8_t buf[4] = {0, 0, 0, 0};
  const auto read = [&](unsigned offset, unsigned size) {
    const std::uint32_t addr = pc + offset;
    if (price) {
      const std::optional<std::uint32_t> cost =
          ibus_->fixed_fetch_cost(addr, size);
      price = cost ? std::optional<std::uint32_t>(*price + *cost)
                   : std::nullopt;
    }
    std::uint32_t value = 0;
    if (probe && !price) {
      // Streamed: every read of the instruction must come from one flash
      // streamer (no read issued yet), peeked without advancing it.
      if (*cycles != 0 || !streamer_covers(addr, size)) {
        return false;
      }
      value = fstream_.flash->peek(addr - fstream_.base, size);
    } else {
      const mem::MemResult r =
          ifetch_.read(addr, size, mem::Access::fetch, cycles_ + *cycles);
      *cycles += r.cycles;
      if (!r.ok()) {
        if (!probe) {
          do_fault(r.fault, addr, mem::Access::fetch);
        }
        return false;
      }
      value = r.value;
    }
    for (unsigned k = 0; k < size; ++k) {
      buf[offset + k] = static_cast<std::uint8_t>(value >> (8 * k));
    }
    return true;
  };

  if (!read(0, fetch_unit_)) {
    return false;
  }
  if (mode == FetchMode::replay) {
    return *replay != FetchReplay::two_read || read(2, 2);
  }
  *replay = FetchReplay::one_read;
  int n = codec_.decode(std::span<const std::uint8_t>(buf, fetch_unit_),
                        out->insn);
  if (n == 0 && fetch_unit_ == 2) {
    // Possibly the first half of a 32-bit instruction: fetch the second
    // halfword (sequential, so the streamer prices it kindly).
    if (!read(2, 2)) {
      return false;
    }
    n = codec_.decode(std::span<const std::uint8_t>(buf, 4), out->insn);
    *replay = FetchReplay::two_read;
  }
  if (n == 0 || (probe && price && *price != *cycles)) {
    if (!probe) {
      halt(HaltReason::invalid_insn);
    }
    return false;
  }
  if (price && *price == *cycles) {
    *replay = FetchReplay::fixed;
  }
  out->size = n;
  return true;
}

bool Core::streamer_covers(std::uint32_t addr, std::uint32_t size) {
  if (addr - fstream_.base >= fstream_.size) {
    (void)ibus_->fetch_streamer(addr, &fstream_);
  }
  const std::uint32_t off = addr - fstream_.base;
  return fstream_.flash != nullptr && off < fstream_.size &&
         size <= fstream_.size - off;
}

// ----- control transfer -----------------------------------------------------------

void Core::branch_to(std::uint32_t target) {
  if (target >= kExcReturnBase) {
    if (target == kExitReturn) {
      halt(HaltReason::exited);
      return;
    }
    if (intc_ != nullptr && intc_->exception_return(*this, target)) {
      return;
    }
    halt(HaltReason::fault);
    fault_info_ = CoreFault{mem::Fault::unmapped, target, cur_pc_,
                            mem::Access::fetch};
    return;
  }
  take_branch(target);
  clear_it_state();
  cycles_ += config_.timings.branch_taken_penalty;
}

// ----- main step --------------------------------------------------------------------

bool Core::attend_boundary() {
  // Slow-path attention, hoisted so the common case (no hook, not sleeping,
  // no pending request) is a couple of predictable branches. The interrupt
  // poll is gated on the controller's pending-line dirty flag, set by
  // raise(); a masked-pending line keeps the flag (and the poll) alive so
  // re-enabling interrupts still delivers it.
  if (cycle_hook_) {
    cycle_hook_(cycles_);
  }
  if (wfi_) {
    if (intc_ == nullptr || !intc_->dispatch_needed() ||
        !intc_->would_preempt(*this)) {
      return false;
    }
    wfi_ = false;
  }
  if (intc_ != nullptr && intc_->dispatch_needed()) {
    intc_->poll(*this);
  }
  return halt_ == HaltReason::none;
}

bool Core::step() {
  if (halt_ != HaltReason::none) {
    return false;
  }
  if (!attend_boundary()) {
    if (halt_ != HaltReason::none) {
      return false;
    }
    cycles_ += 1;  // asleep: one idle cycle per step
    return true;
  }
  if (takes_span()) {
    // Single-stepping still exercises block dispatch (the resume cursor
    // carries the position between steps), so direct step() drivers — the
    // differential fuzzer above all — test the same machinery run() uses.
    run_span(insns_ + 1, std::numeric_limits<std::uint64_t>::max());
  } else {
    step_insn();
  }
  return halt_ == HaltReason::none;
}

void Core::step_insn() {
  cur_pc_ = regs_[isa::pc];
  std::uint32_t fetch_cycles = 0;
  const Decoded* d = nullptr;
  Decoded fresh;

  if (code_) {
    // Units that change fetch results without touching memory carry version
    // counters; compare them before trusting a hit (only when they exist).
    if (fpb_ != nullptr && fpb_->version() != fpb_version_seen_) {
      fpb_version_seen_ = fpb_->version();
      invalidate_decoded();
    }
    if (mpu_ != nullptr && mpu_->version() != mpu_version_seen_) {
      mpu_version_seen_ = mpu_->version();
      invalidate_decoded();
    }
    CodeCache::Line* line = code_->line(cur_pc_);
    if (line != nullptr && line->privileged == privileged_) {
      ++code_->stats().decode_hits;
      if (line->replay == FetchReplay::fixed) {
        fetch_cycles = line->fixed_cycles;
      } else if (!fetch(cur_pc_, FetchMode::replay, nullptr, &fetch_cycles,
                        &line->replay)) {
        cycles_ += fetch_cycles;
        return;
      }
      // Execute straight from the cache line: invalidation only bumps the
      // generation (it never rewrites line contents mid-instruction), so
      // the reference stays stable even if execute() snoops a store.
      d = &line->d;
    } else {
      ++code_->stats().decode_misses;
    }
  }

  if (d == nullptr) {
    FetchReplay replay = FetchReplay::one_read;
    if (!fetch(cur_pc_, FetchMode::run, &fresh, &fetch_cycles, &replay)) {
      cycles_ += fetch_cycles;
      return;
    }
    if (code_) {
      code_->install_line(cur_pc_, fresh, replay,
                          replay == FetchReplay::fixed ? fetch_cycles : 0,
                          privileged_);
    }
    d = &fresh;
  }

  // Default sequential advance; execute() may overwrite (branch/restart).
  regs_[isa::pc] = cur_pc_ + static_cast<std::uint32_t>(d->size);

  std::uint32_t exec_cycles = 0;
  execute(*d, &exec_cycles);

  // Pipeline overlap: fetch of the next instruction hides behind execute.
  cycles_ += std::max(fetch_cycles, exec_cycles);
  ++insns_;
  ++stats_.instructions;
}

HaltReason Core::run_chunk(std::uint64_t max_instructions,
                           std::uint64_t cycle_limit) {
  const std::uint64_t start = insns_;
  const std::uint64_t ilimit =
      max_instructions > std::numeric_limits<std::uint64_t>::max() - start
          ? std::numeric_limits<std::uint64_t>::max()
          : start + max_instructions;
  while (halt_ == HaltReason::none) {
    if (insns_ >= ilimit) {
      return HaltReason::insn_limit;
    }
    if (cycles_ >= cycle_limit) {
      return HaltReason::none;
    }
    // The superblock dispatcher attends its interior boundaries through
    // the same routine. Asleep with nothing deliverable hands back to the
    // caller, which either ticks cycles (run) or fast-forwards to the next
    // event (System::advance_to); this boundary's hook already ran.
    if (!attend_boundary()) {
      return halt_;
    }
    if (takes_span()) {
      run_span(ilimit, cycle_limit);
    } else {
      step_insn();
    }
  }
  return halt_;
}

HaltReason Core::run(std::uint64_t max_instructions) {
  const std::uint64_t limit =
      max_instructions > std::numeric_limits<std::uint64_t>::max() - insns_
          ? std::numeric_limits<std::uint64_t>::max()
          : insns_ + max_instructions;
  while (halt_ == HaltReason::none) {
    if (insns_ >= limit) {
      return HaltReason::insn_limit;
    }
    const HaltReason r =
        run_chunk(limit - insns_, std::numeric_limits<std::uint64_t>::max());
    if (r != HaltReason::none) {
      return r;
    }
    // Only a wfi with no deliverable interrupt returns `none` under an
    // unbounded cycle limit; model the sleeping core one cycle at a time
    // (the chunk already ran this boundary's hook).
    if (wfi_) {
      cycles_ += 1;
    }
  }
  return halt_;
}

Core::JitStats Core::jit_stats() const {
  JitStats s;
  if (code_) {
    static_cast<CodeCache::Stats&>(s) = code_->stats();
  }
  if (s.blocks_formed > 0) {
    s.avg_block_length = static_cast<double>(s.entries_chained) /
                         static_cast<double>(s.blocks_formed);
  }
  return s;
}

// ----- execute ---------------------------------------------------------------------

void Core::execute(const Decoded& d, std::uint32_t* exec_cycles) {
  const Instruction& i = d.insn;
  const CoreTimings& t = config_.timings;
  *exec_cycles = t.data_op;

  // Predication: IT block (B32) or encoded condition (W32). The IT
  // instruction itself is never predicated — its cond field is the block's
  // first condition, not a guard on the IT.
  bool in_it = false;
  Cond cond = i.op == Op::it ? Cond::al : i.cond;
  if (it_active() && i.op != Op::it) {
    cond = it_conds_[it_pos_];
    in_it = true;
    advance_it();
  }
  if (cond != Cond::al && !isa::cond_holds(cond, flags_)) {
    ++stats_.predicated_skips;
    return;  // 1 cycle for the annulled slot
  }

  const bool set = (i.set_flags == SetFlags::yes) &&
                   (!in_it || sem::is_compare(i.op));

  switch (i.op) {
    // ----- data processing (cpu/semantics.h) -----
    case Op::add:
    case Op::adc:
    case Op::sub:
    case Op::sbc:
    case Op::rsb:
    case Op::cmp:
    case Op::cmn:
      exec_arith(i.op, i, set);
      break;
    case Op::and_:
    case Op::orr:
    case Op::eor:
    case Op::bic:
    case Op::tst:
    case Op::teq:
    case Op::mov:
    case Op::mvn:
      exec_logical(i.op, i, set);
      break;
    case Op::lsl:
    case Op::lsr:
    case Op::asr:
    case Op::ror:
      exec_shift(i, set);
      break;

    // ----- multiply / divide -----
    case Op::mul:
      *exec_cycles = exec_mul(i, set);
      break;
    case Op::mla:
      regs_[i.rd] = regs_[i.rn] * regs_[i.rm] + regs_[i.ra];
      *exec_cycles = mul_cycles(regs_[i.rm]) + 1;
      break;
    case Op::sdiv: {
      const auto n = static_cast<std::int32_t>(regs_[i.rn]);
      const auto m = static_cast<std::int32_t>(regs_[i.rm]);
      // ARM semantics: divide by zero yields zero; INT_MIN/-1 wraps.
      regs_[i.rd] = m == 0 ? 0
                    : (n == INT32_MIN && m == -1)
                        ? static_cast<std::uint32_t>(INT32_MIN)
                        : static_cast<std::uint32_t>(n / m);
      *exec_cycles = div_cycles(regs_[i.rn]);
      break;
    }
    case Op::udiv:
      regs_[i.rd] = regs_[i.rm] == 0 ? 0 : regs_[i.rn] / regs_[i.rm];
      *exec_cycles = div_cycles(regs_[i.rn]);
      break;

    case Op::movw:
    case Op::movt:
    case Op::bfi:
    case Op::bfc:
    case Op::ubfx:
    case Op::sbfx:
    case Op::rbit:
    case Op::rev:
    case Op::rev16:
    case Op::clz:
    case Op::sxtb:
    case Op::sxth:
    case Op::uxtb:
    case Op::uxth:
      exec_bit_op(i.op, i);
      break;

    // ----- loads / stores -----
    case Op::ldr:
    case Op::ldrb:
    case Op::ldrh:
    case Op::ldrsb:
    case Op::ldrsh: {
      const std::uint32_t addr = address(i.addr, i, cur_pc_);
      unsigned size = 4;
      bool sign = false;
      unsigned ext = 32;
      switch (i.op) {
        case Op::ldrb: size = 1; break;
        case Op::ldrh: size = 2; break;
        case Op::ldrsb: size = 1; sign = true; ext = 8; break;
        case Op::ldrsh: size = 2; sign = true; ext = 16; break;
        default: break;
      }
      std::uint32_t value = 0;
      std::uint32_t cycles = 0;
      if (!mem_read(addr, size, &value, &cycles, sign, ext)) {
        return;
      }
      regs_[i.rd] = value;
      *exec_cycles = t.data_op + t.load_extra + cycles;
      break;
    }
    case Op::str:
    case Op::strb:
    case Op::strh: {
      const std::uint32_t addr = address(i.addr, i, cur_pc_);
      const unsigned size = i.op == Op::strb ? 1 : i.op == Op::strh ? 2 : 4;
      std::uint32_t cycles = 0;
      if (!mem_write(addr, size, regs_[i.rd], &cycles)) {
        return;
      }
      *exec_cycles = t.data_op + t.store_extra + cycles;
      break;
    }
    case Op::adr:
      regs_[i.rd] = sem::pc_relative(cur_pc_, i.imm);
      break;

    // ----- multiple transfer -----
    case Op::ldm:
    case Op::pop: {
      const bool is_pop = i.op == Op::pop;
      std::uint32_t addr = is_pop ? regs_[isa::sp] : regs_[i.rn];
      std::uint32_t cycles = t.ldm_base;
      std::uint32_t branch_target = 0;
      bool do_branch = false;
      unsigned transferred = 0;
      for (isa::Reg r = 0; r < 16; ++r) {
        if (((i.reglist >> r) & 1u) == 0) {
          continue;
        }
        // §3.1.2: a pending interrupt may abandon the transfer; the whole
        // instruction restarts after the handler returns.
        if (cycle_hook_) {
          cycle_hook_(cycles_ + cycles);
        }
        if (config_.restartable_ldm && transferred > 0 && intc_ != nullptr &&
            intc_->dispatch_needed() && intc_->would_preempt(*this)) {
          regs_[isa::pc] = cur_pc_;  // restart this instruction
          ++stats_.ldm_restarts;
          *exec_cycles = cycles;
          return;
        }
        std::uint32_t value = 0;
        if (!mem_read(addr, 4, &value, &cycles, false, 32)) {
          return;
        }
        if (r == isa::pc) {
          branch_target = value;
          do_branch = true;
        } else {
          regs_[r] = value;
        }
        addr += 4;
        ++transferred;
      }
      if (is_pop) {
        regs_[isa::sp] = addr;
      } else if (i.writeback) {
        regs_[i.rn] = addr;
      }
      *exec_cycles = cycles;
      if (do_branch) {
        branch_to(branch_target);
      }
      break;
    }
    case Op::stm:
    case Op::push: {
      const bool is_push = i.op == Op::push;
      const unsigned count = support::popcount(i.reglist);
      std::uint32_t addr = is_push ? regs_[isa::sp] - 4 * count : regs_[i.rn];
      const std::uint32_t base_new = addr + (is_push ? 0 : 4 * count);
      std::uint32_t cycles = t.ldm_base;
      unsigned transferred = 0;
      for (isa::Reg r = 0; r < 16; ++r) {
        if (((i.reglist >> r) & 1u) == 0) {
          continue;
        }
        if (cycle_hook_) {
          cycle_hook_(cycles_ + cycles);
        }
        if (config_.restartable_ldm && transferred > 0 && intc_ != nullptr &&
            intc_->dispatch_needed() && intc_->would_preempt(*this)) {
          regs_[isa::pc] = cur_pc_;
          ++stats_.ldm_restarts;
          *exec_cycles = cycles;
          return;
        }
        if (!mem_write(addr, 4, regs_[r], &cycles)) {
          return;
        }
        addr += 4;
        ++transferred;
      }
      if (is_push) {
        regs_[isa::sp] -= 4 * count;
      } else if (i.writeback) {
        regs_[i.rn] = base_new;
      }
      *exec_cycles = cycles;
      break;
    }

    // ----- branches -----
    case Op::b:
      branch_to(sem::branch_target(cur_pc_, i.imm));
      break;
    case Op::bl:
      regs_[isa::lr] = cur_pc_ + static_cast<std::uint32_t>(d.size);
      branch_to(sem::branch_target(cur_pc_, i.imm));
      *exec_cycles = t.data_op + t.branch_link_extra;
      break;
    case Op::bx:
      branch_to(regs_[i.rm]);
      break;
    case Op::cbz:
    case Op::cbnz:
      if (cbz_taken(i)) {
        branch_to(sem::branch_target(cur_pc_, i.imm));
      }
      break;
    case Op::tbb: {
      const std::uint32_t entry_addr = regs_[i.rn] + regs_[i.rm];
      std::uint32_t entry = 0;
      std::uint32_t cycles = 0;
      if (!mem_read(entry_addr, 1, &entry, &cycles, false, 32)) {
        return;
      }
      *exec_cycles = t.data_op + t.load_extra + cycles;
      branch_to(cur_pc_ + 4 + 2 * entry);
      break;
    }

    case Op::it:
      start_it(i);
      break;

    // ----- system -----
    case Op::nop:
      break;
    case Op::svc:
      if (i.imm == 0) {
        halt(HaltReason::exited);
      } else {
        // No supervisor-call table in the ISA-level model.
        halt(HaltReason::breakpoint);
      }
      break;
    case Op::bkpt:
      halt(HaltReason::breakpoint);
      break;
    case Op::cps:
      irq_enabled_ = i.imm == 0;
      break;
    case Op::wfi:
      wfi_ = true;
      break;
  }
}

}  // namespace aces::cpu
