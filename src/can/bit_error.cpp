#include "can/bit_error.h"

#include <memory>

#include "support/splitmix.h"

namespace aces::can {

CanBus::BitErrorModel make_seeded_error_model(
    const CanBus& bus, const SeededErrorCampaign& campaign) {
  if (campaign.min_interarrival <= 0 || campaign.probability <= 0.0) {
    return nullptr;
  }
  struct State {
    support::Pcg32 rng;
    bool armed = false;           // an error instant has been recorded
    sim::SimTime last_error = 0;  // wire time of the last corrupted bit
  };
  auto st = std::make_shared<State>(
      State{support::Pcg32(campaign.seed, campaign.stream), false, 0});
  const sim::SimTime gap = campaign.min_interarrival;
  const double p = campaign.probability;
  return [st, &bus, gap, p](const CanFrame& frame, NodeId,
                            sim::SimTime start) -> int {
    // Gap check against the *earliest* instant this attempt could be
    // corrupted, so ineligible attempts consume no RNG draws and the
    // stream stays aligned with the sequence of eligible attempts.
    if (st->armed && start + bus.bit_time() < st->last_error + gap) {
      return -1;
    }
    if (!st->rng.chance(p)) {
      return -1;
    }
    const CanBus::AttemptTiming timing = bus.attempt_timing(frame);
    const int bit = static_cast<int>(st->rng.below(timing.bits));
    // The chosen bit lands at a known wire time (the bus's own per-phase
    // pricing, so FD data-phase bits are placed at the data rate); if it
    // would violate the spacing hypothesis, skip this attempt (keeps E(t)
    // sound without biasing the bit distribution).
    const sim::SimTime instant =
        start + timing.prefix(static_cast<unsigned>(bit) + 1);
    if (st->armed && instant < st->last_error + gap) {
      return -1;
    }
    st->armed = true;
    st->last_error = instant;
    return bit;
  };
}

}  // namespace aces::can
