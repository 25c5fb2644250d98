// Cycle cost model for the UC32 cores.
//
// Two calibrated profiles reproduce the paper's comparison hardware:
//   legacy_hp  — a mid-90s 3-stage pipeline (ARM7-class): multi-cycle
//                loads/stores, early-termination multiplier, 2-cycle branch
//                refill, software-managed interrupt entry.
//   modern_mcu — a 2000s microcontroller core (Cortex-M3-class):
//                single-cycle multiply, hardware divide, buffered stores,
//                faster refill, hardware-stacked interrupt entry with
//                tail-chaining.
// The per-instruction time charged by the core is
//   max(fetch_cycles, execute_cycles)
// modeling an in-order pipeline whose fetch of instruction k+1 overlaps the
// execute of instruction k. Flash-resident code is therefore fetch-bound —
// exactly the regime where the paper's code-density arguments (§2.1, §2.2)
// bite. Every dispatch tier charges from this one model: the superblock
// executor computes each chained entry's fetch cost as it dispatches it (a
// fixed price, or the flash streamer run inline) and charges
// max(fetch, execute) from these same fields, so changing a cost here
// re-prices all tiers identically (the differential fuzzer holds them to
// it).
#ifndef ACES_CPU_TIMINGS_H
#define ACES_CPU_TIMINGS_H

#include <cstdint>

namespace aces::cpu {

struct CoreTimings {
  // Execute-stage costs (cycles), excluding memory-port time which is
  // charged from the bus model.
  std::uint32_t data_op = 1;
  std::uint32_t mul_base = 1;         // plus early-termination extra
  std::uint32_t mul_per_byte = 1;     // extra per significant operand byte
  bool mul_early_termination = true;  // false => always mul_base
  std::uint32_t div_base = 2;         // hardware divide (B32 cores)
  std::uint32_t div_bits_per_cycle = 4;
  std::uint32_t load_extra = 2;       // beyond the data-port cycles
  std::uint32_t store_extra = 1;
  std::uint32_t ldm_base = 1;         // plus per-transfer port time
  std::uint32_t branch_taken_penalty = 2;  // pipeline refill
  std::uint32_t branch_link_extra = 0;

  // Exception machinery.
  std::uint32_t exception_entry_base = 3;  // recognize + mode switch
  std::uint32_t exception_return_base = 2;
  bool hardware_stacking = false;  // IVC: push 8 registers in hardware
  std::uint32_t tail_chain_cycles = 6;

  [[nodiscard]] static CoreTimings legacy_hp() {
    CoreTimings t;
    t.mul_base = 1;
    t.mul_per_byte = 1;
    t.mul_early_termination = true;
    t.load_extra = 2;
    t.store_extra = 1;
    t.branch_taken_penalty = 2;
    t.exception_entry_base = 3;
    t.hardware_stacking = false;
    return t;
  }

  [[nodiscard]] static CoreTimings modern_mcu() {
    CoreTimings t;
    t.mul_base = 1;
    t.mul_early_termination = false;  // single-cycle multiplier array
    t.load_extra = 1;
    t.store_extra = 0;  // store buffer
    t.branch_taken_penalty = 1;
    t.exception_entry_base = 2;
    t.hardware_stacking = true;
    return t;
  }
};

}  // namespace aces::cpu

#endif  // ACES_CPU_TIMINGS_H
