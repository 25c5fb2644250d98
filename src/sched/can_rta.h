// Worst-case response-time analysis for CAN messages, with and without
// transmission errors.
//
// Implements the revised analysis of Davis, Burns, Bril & Lukkien
// ("Controller Area Network (CAN) schedulability analysis: Refuted,
// revisited and revised", RTS 2007): non-preemptive fixed-priority
// scheduling with the priority given by the identifier, including the
// busy-period extension that examines multiple instances when a message's
// response time can exceed its period. Frame times use the worst-case
// stuffed length from can/frame.h, so the simulated bus (can/bus.h) can
// never exceed these bounds — the property bench_can_rta sweeps.
//
// Fault-aware bounds follow Tindell's classic error-recovery term: if bit
// errors strike the bus at most once every T_error, a busy window of
// length t suffers at most ceil((t + tau_bit) / T_error) errors, and each
// costs at most the 31-bit error-frame recovery overhead plus one full
// retransmission of the longest frame:
//
//   E(t) = (31 * tau_bit + max_j C_j) * ceil((t + tau_bit) / T_error)
//
// The simulated fault model (CanBus::BitErrorModel + error state machine)
// is strictly cheaper per error — its error frames are at most 25 bit
// times and the aborted attempt never exceeds one frame — so the faulted
// bound dominates the simulation whenever injected errors respect
// T_error; tests/can_fault_test.cpp asserts exactly that, differentially.
//
// Message i's recurrences read only the other messages' inputs (period,
// jitter, frame time, priority), never their results, so one message can
// be analyzed alone. can_rta analyzes every message of the set; a path_rta
// hop analyzes only its routed message, and only in the pass it reads.
#ifndef ACES_SCHED_CAN_RTA_H
#define ACES_SCHED_CAN_RTA_H

#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.h"

namespace aces::sched {

struct CanMessage {
  std::string name;
  std::uint32_t id = 0;       // priority: exact wire arbitration order
                              // (can::arbitration_key), so a standard id
                              // outranks an extended one sharing its base
  unsigned dlc = 8;           // classic: 0..8 bytes; FD: DLC code 0..15
  sim::SimTime period = 0;    // T
  sim::SimTime deadline = 0;  // D (0: implicit = T)
  sim::SimTime jitter = 0;    // queuing jitter J
  bool extended = false;      // 29-bit identifier frame format
  bool fd = false;            // CAN FD frame: worst-case length splits into
                              // nominal + data phases (can::fd_worst_case_*)
  bool brs = true;            // FD only: data phase at the data bit rate
                              // (matches can::CanFrame::brs' default)
};

// Fault hypothesis for the error-recovery term. Disabled (the exact
// fault-free analysis) when min_interarrival == 0.
struct CanErrorModel {
  sim::SimTime min_interarrival = 0;  // T_error: min gap between bit errors
};

struct CanRtaResult {
  bool schedulable = false;
  // Operative worst-case queue-to-delivery bounds: faulted when an error
  // model is given, identical to response_fault_free otherwise.
  std::vector<sim::SimTime> response;
  std::vector<sim::SimTime> response_fault_free;  // E(t) term off
  std::vector<sim::SimTime> response_faulted;     // E(t) term on (== fault
                                                  // free when no model)
  std::vector<bool> message_ok;
  double bus_utilization = 0.0;
};

// `data_bitrate_bps` > 0 prices FD messages' data phase at that rate
// (matching a can::CanBus built with the same pair); FD messages on a bus
// with no data rate run both phases at the nominal rate, like the wire.
[[nodiscard]] CanRtaResult can_rta(const std::vector<CanMessage>& messages,
                                   std::uint32_t bitrate_bps,
                                   const CanErrorModel& errors = {},
                                   std::uint32_t data_bitrate_bps = 0);

// ----- end-to-end analysis across gateway hops -------------------------------
//
// A message routed through store-and-forward gateways (net::GatewayNode)
// crosses several buses; its worst-case end-to-end latency is the holistic
// composition (Tindell & Clark): the response bound of hop k, plus the
// gateway forwarding latency, becomes the *release jitter* of the message
// on hop k+1, so the downstream per-bus analysis charges every queuing
// effect of the upstream variability. Each hop's bound is the can_rta
// recurrence of the routed message against that bus's whole set (blocking
// + interference + optional Tindell error term) — bit-identical to reading
// it out of a full can_rta, without analyzing the messages nobody asked
// about — so the gateway queuing delay (waiting behind the egress bus's
// own traffic) is exactly the w-term of the downstream analysis.

struct PathHop;

// Fabric-specific per-hop analysis plugin. Receives the hop, the
// accumulated upstream bound + gateway latency (`inherited`, charged as
// release jitter), and whether the hop's fault hypothesis applies
// (`faulted`; the fault-free pass always runs with false). Returns the new
// cumulative end-to-end bound — i.e. inherited + this hop's local
// queue-to-delivery bound — and whether the hop meets its own deadline. A
// null plugin means the CAN busy-period analysis below (classic, or FD
// dual-rate when the hop carries a data bit rate).
struct HopBound {
  sim::SimTime response = 0;  // cumulative bound including `inherited`
  bool ok = true;             // hop-local deadline + feasibility verdict
};
using HopAnalysis =
    std::function<HopBound(const PathHop&, sim::SimTime inherited,
                           bool faulted)>;

struct PathHop {
  // The complete message set competing on this hop's bus. The analyzed
  // message's jitter field is *added to* by the accumulated upstream bound;
  // other routed messages in the set must already carry their own inherited
  // jitter (their upstream bound + gateway latency) for the interference
  // terms to be sound. Unused (may be empty) when `analysis` is set to a
  // non-CAN fabric plugin.
  std::vector<CanMessage> messages;
  std::size_t message = 0;  // index of the analyzed message in `messages`
  std::uint32_t bitrate_bps = 0;
  std::uint32_t data_bitrate_bps = 0;  // FD data-phase rate (0: classic bus)
  CanErrorModel errors;               // this hop's fault hypothesis
  sim::SimTime gateway_latency = 0;   // store-and-forward delay charged on
                                      // entry to this hop (0 for the source)
  // Opaque caller tag identifying which physical bus this hop crosses
  // (e.g. a net::BusId). The analysis ignores it; cross-layer tooling —
  // the campaign engine matching per-bus fault plans onto hops — keys on
  // it. -1 = untagged.
  int bus = -1;
  // Fabric plugin (see HopAnalysis). Null: the CAN analysis over
  // `messages`, which keeps every pre-plugin path_rta result unchanged.
  HopAnalysis analysis;
  // Plugin hops only: the hop-local queue-to-delivery deadline (CAN hops
  // read the analyzed message's deadline/period instead). Must be > 0 when
  // a plugin hop ends the path and no explicit end-to-end deadline is
  // passed to path_rta.
  sim::SimTime hop_deadline = 0;
};

// Builds one PathHop, locating the analyzed message by identifier (checked:
// the id must be present in `messages` exactly once).
[[nodiscard]] PathHop make_hop(std::vector<CanMessage> messages,
                               std::uint32_t id, std::uint32_t bitrate_bps,
                               sim::SimTime gateway_latency = 0,
                               const CanErrorModel& errors = {},
                               int bus = -1,
                               std::uint32_t data_bitrate_bps = 0);

struct PathRtaResult {
  // Operative verdict (fault hypotheses applied where hops declare them)
  // and the fault-free verdict alongside it — a path can be schedulable on
  // a clean network yet not under the error model.
  bool schedulable = false;
  bool schedulable_fault_free = false;
  // Operative end-to-end bound, from the source-bus queue instant to
  // delivery on the final bus: faulted wherever a hop declares an error
  // model, identical to response_fault_free otherwise.
  sim::SimTime response = 0;
  sim::SimTime response_fault_free = 0;
  sim::SimTime response_faulted = 0;
  // Cumulative operative bound after each hop (last == response).
  std::vector<sim::SimTime> hop_response;
};

// `deadline` is the end-to-end deadline; 0 uses the analyzed message's
// deadline (or period) on the final hop. Per-hop schedulability is judged
// on queue-to-delivery against that hop's own deadline/period.
[[nodiscard]] PathRtaResult path_rta(const std::vector<PathHop>& hops,
                                     sim::SimTime deadline = 0);

}  // namespace aces::sched

#endif  // ACES_SCHED_CAN_RTA_H
