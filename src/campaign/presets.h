// Reference campaign specs over the repo's flagship topologies.
//
// vehicle_spec() is the batch twin of examples/vehicle_network.cpp: the
// same segmented E/E architecture — powertrain 500 kbps / body 125 kbps /
// diagnostics 250 kbps bridged by a central store-and-forward gateway —
// built entirely from kernel-model ECUs so one variant costs milliseconds
// and a campaign sweeps thousands of them. Swept axes:
//
//   error_period_ns  T_error of the seeded per-bus bit-error campaigns
//                    (0 = fault-free); also the fault hypothesis fed into
//                    every path's faulted sched::path_rta bound.
//   gw_depth         central gateway per-direction queue depth — small
//                    depths expose the overload drop behavior.
//   load_pct         background-traffic load scale: the periods of every
//                    non-routed publisher are multiplied by 100/load_pct
//                    (a declarative task-set mutation; 100 = baseline).
//
// Four routed paths are measured and bounded: diag request (diag -> pt,
// remapped, answered by a model responder standing in for the engine ECU),
// engine status (pt -> diag), wheel speed (pt -> body) and door status
// (body -> diag). Routed interferers carry a conservative inherited
// release jitter (their source period + gateway latency — an upper bound
// on their true inherited jitter whenever their own hop is schedulable,
// which each path's own check establishes per variant).
#ifndef ACES_CAMPAIGN_PRESETS_H
#define ACES_CAMPAIGN_PRESETS_H

#include "campaign/spec.h"

namespace aces::campaign::presets {

// The 3-bus, 23-ECU model-fidelity vehicle campaign. `horizon` is the
// per-variant simulated time; axes/replicates on the returned spec may be
// overridden before running (the default grid is 4 x 2 x 3 x 2 = 48 points,
// one replicate each).
[[nodiscard]] ScenarioSpec vehicle_spec(sim::SimTime horizon =
                                            sim::kSecond);

}  // namespace aces::campaign::presets

#endif  // ACES_CAMPAIGN_PRESETS_H
