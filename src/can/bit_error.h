// Seeded, analyzable bit-error campaigns for can::CanBus.
//
// PR 4 gave CanBus a BitErrorModel hook and left seeding to the caller;
// every test and example hand-rolled the same three lines of state (an RNG,
// a minimum-gap clock, a uniform bit choice). This header productizes that
// pattern as the one campaign construction the batch engine (src/campaign/)
// hands out per variant:
//
//   - deterministic: all randomness comes from a support::Pcg32 seeded from
//     the config, so a campaign replays bit-identically from its seed;
//   - analyzable: error *instants* (the corrupted bit's position on the
//     wire, not the attempt start) are spaced at least `min_interarrival`
//     apart, which is exactly the fault hypothesis Tindell's E(t) term in
//     sched::can_rta charges — so the faulted analytic bound dominates the
//     simulated latencies for as long as no node reaches bus-off.
//
// The returned model owns its state; installing it on a second bus (or
// re-running a topology) requires a fresh call with a fresh seed, which is
// how per-variant stream isolation stays airtight.
#ifndef ACES_CAN_BIT_ERROR_H
#define ACES_CAN_BIT_ERROR_H

#include <cstdint>

#include "can/bus.h"

namespace aces::can {

struct SeededErrorCampaign {
  // Minimum gap between consecutive error instants (T_error of the faulted
  // response-time analysis). 0 disables the campaign entirely.
  sim::SimTime min_interarrival = 0;
  // Corruption chance per transmission attempt that is far enough from the
  // previous error to be eligible.
  double probability = 1.0;
  // Per-campaign RNG stream (support::Pcg32 seed); derive it from a master
  // seed with support::derive_stream for batch sweeps.
  std::uint64_t seed = 1;
  // Optional sub-stream selector (e.g. the bus index of a multi-bus
  // variant), so one variant seed can drive several non-overlapping
  // campaigns.
  std::uint64_t stream = 0;
};

// Builds a CanBus::BitErrorModel implementing `campaign` against `bus`'s
// wire timing (CanBus::attempt_timing: classic and CAN FD frames alike).
// The bus reference is only used for timing arithmetic and must outlive
// the returned callable.
[[nodiscard]] CanBus::BitErrorModel make_seeded_error_model(
    const CanBus& bus, const SeededErrorCampaign& campaign);

}  // namespace aces::can

#endif  // ACES_CAN_BIT_ERROR_H
