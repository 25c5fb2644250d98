#include "sched/can_rta.h"

#include <algorithm>

#include "can/frame.h"
#include "support/check.h"

namespace aces::sched {

using sim::SimTime;

namespace {

// Priority on the wire: the exact arbitration dominance order, NOT the
// raw identifier — an extended frame's 29-bit id is numerically huge but
// its 11-bit base competes first, so a mixed-format set ordered by raw id
// would be unsound against the simulated bus.
[[nodiscard]] std::uint32_t wire_priority(const CanMessage& m) {
  // arbitration_key masks out-of-range bits, which would silently alias
  // distinct priorities — fatal in a safety analysis, so reject here.
  ACES_CHECK_MSG(m.id < (1u << (m.extended ? 29 : 11)),
                 "identifier out of range for the frame format");
  can::CanFrame f;
  f.id = m.id;
  f.extended = m.extended;
  return can::arbitration_key(f);
}

// Worst-case frame time on a bus with nominal bit time `tau` and FD
// data-phase bit time `tau_data` (== tau on a classic-only bus). FD frames
// split per phase; their worst-case closed forms (can::fd_worst_case_*)
// upper-bound the exact phase lengths the simulated bus prices.
[[nodiscard]] SimTime worst_frame_time(const CanMessage& m, SimTime tau,
                                       SimTime tau_data) {
  if (!m.fd) {
    return tau * can::worst_case_wire_bits(m.dlc, m.extended);
  }
  const SimTime td = m.brs ? tau_data : tau;
  return tau * can::fd_worst_case_nominal_bits(m.extended) +
         td * can::fd_worst_case_data_bits(m.dlc);
}

// A message's deadline field, resolved: 0 (or less) means implicit = T.
[[nodiscard]] SimTime resolved_deadline(SimTime deadline, SimTime period) {
  return deadline > 0 ? deadline : period;
}

// The per-set loop invariants of the recurrences: the bit time, every
// message's wire priority and worst-case frame time, and the longest frame
// (the error term's retransmission). One preparation serves every message
// of the set and both the fault-free and the faulted pass.
struct PreparedSet {
  SimTime tau = 0;
  std::vector<std::uint32_t> key;
  std::vector<SimTime> c;
  SimTime max_c = 0;
};

[[nodiscard]] PreparedSet prepare(const std::vector<CanMessage>& messages,
                                  std::uint32_t bitrate_bps,
                                  std::uint32_t data_bitrate_bps) {
  ACES_CHECK_MSG(bitrate_bps > 0, "CAN RTA needs a nonzero bit rate");
  PreparedSet p;
  p.tau = sim::kSecond / bitrate_bps;
  // FD data-phase bit time; with no data rate the wire (and so the bound)
  // runs FD data phases at the nominal rate.
  const SimTime tau_data =
      data_bitrate_bps > 0 ? sim::kSecond / data_bitrate_bps : p.tau;
  p.key.resize(messages.size());
  p.c.resize(messages.size());
  for (std::size_t j = 0; j < messages.size(); ++j) {
    // Every period divides in some message's activation count.
    ACES_CHECK(messages[j].period > 0);
    p.key[j] = wire_priority(messages[j]);
    p.c[j] = worst_frame_time(messages[j], p.tau, tau_data);
    p.max_c = std::max(p.max_c, p.c[j]);
  }
  // The analysis is only sound under unique priorities (the simulator
  // diagnoses the same condition as duplicate_id_conflicts); equal keys
  // would silently drop the twin's interference below.
  std::vector<std::uint32_t> sorted = p.key;
  std::sort(sorted.begin(), sorted.end());
  ACES_CHECK_MSG(std::adjacent_find(sorted.begin(), sorted.end()) ==
                     sorted.end(),
                 "duplicate arbitration priority in the message set");
  return p;
}

struct MessageBound {
  SimTime response = 0;
  bool ok = false;
};

// The busy-period and instance recurrences for message i alone. Message i
// is analyzed with release jitter `jitter_i` and resolved deadline
// `deadline_i` in place of its own fields; every other message enters only
// through its inputs (period, jitter, frame time, priority), never through
// its own analysis result. `t_error` > 0 adds Tindell's error-recovery term
// E(t) = (31*tau + max_j C_j) * ceil((t + tau) / t_error) to every busy
// window; 0 is the exact fault-free analysis.
[[nodiscard]] MessageBound analyze_one(const std::vector<CanMessage>& messages,
                                       const PreparedSet& p, std::size_t i,
                                       SimTime jitter_i, SimTime deadline_i,
                                       SimTime t_error) {
  const SimTime tau = p.tau;
  const SimTime error_cost = 31 * tau + p.max_c;
  const auto error_term = [&](SimTime t) -> SimTime {
    if (t_error <= 0) {
      return 0;
    }
    return error_cost * ((t + tau + t_error - 1) / t_error);
  };
  const std::vector<std::uint32_t>& key = p.key;
  const std::vector<SimTime>& c = p.c;
  const SimTime period_i = messages[i].period;
  const SimTime cm = c[i];

  // Non-preemptive blocking: the longest lower-priority frame that may
  // have just started.
  SimTime blocking = 0;
  for (std::size_t j = 0; j < messages.size(); ++j) {
    if (key[j] > key[i]) {
      blocking = std::max(blocking, c[j]);
    }
  }

  // Busy-period length at priority level i (includes i's own instances).
  SimTime busy = cm;
  bool truncated = false;
  for (int iter = 0; iter < 10'000; ++iter) {
    SimTime next = blocking + error_term(busy);
    for (std::size_t j = 0; j < messages.size(); ++j) {
      if (key[j] > key[i]) {
        continue;  // lower priority (only in the blocking term)
      }
      const SimTime jitter = j == i ? jitter_i : messages[j].jitter;
      const SimTime activations =
          (busy + jitter + messages[j].period - 1) / messages[j].period;
      next += activations * c[j];
    }
    if (next == busy) {
      break;
    }
    busy = next;
    if (busy > 100 * deadline_i) {
      // Overload escape: the busy period was cut short, so the instance
      // count derived from it may miss later (worse) instances — the
      // verdict below must not claim this message meets its deadline.
      truncated = true;
      break;
    }
  }
  // Instances released inside the level-i busy period: jitter widens
  // the release window (Davis et al., Q_m = ceil((t_m + J_m) / T_m)).
  const SimTime q_max = (busy + jitter_i + period_i - 1) / period_i;

  SimTime worst = 0;
  bool ok = !truncated;
  for (SimTime q = 0; q < std::max<SimTime>(q_max, 1); ++q) {
    // Queuing delay of instance q.
    SimTime w = blocking + q * cm;
    bool converged = false;
    for (int iter = 0; iter < 10'000; ++iter) {
      SimTime next = blocking + q * cm + error_term(w + cm);
      for (std::size_t j = 0; j < messages.size(); ++j) {
        if (j == i || key[j] >= key[i]) {
          continue;  // strictly higher priority interferes
        }
        const SimTime activations =
            (w + messages[j].jitter + tau + messages[j].period - 1) /
            messages[j].period;
        next += activations * c[j];
      }
      if (next == w) {
        converged = true;
        break;
      }
      w = next;
      if (jitter_i + w - q * period_i + cm > 100 * deadline_i) {
        break;
      }
    }
    const SimTime r = jitter_i + w - q * period_i + cm;
    worst = std::max(worst, r);
    ok = ok && converged;
  }
  return {worst, ok && worst <= deadline_i};
}

}  // namespace

CanRtaResult can_rta(const std::vector<CanMessage>& messages,
                     std::uint32_t bitrate_bps, const CanErrorModel& errors,
                     std::uint32_t data_bitrate_bps) {
  const PreparedSet p = prepare(messages, bitrate_bps, data_bitrate_bps);
  const bool faulted = errors.min_interarrival > 0;
  CanRtaResult result;
  result.response_fault_free.assign(messages.size(), 0);
  result.response_faulted.assign(messages.size(), 0);
  result.message_ok.assign(messages.size(), false);

  double util = 0.0;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    util += static_cast<double>(p.c[i]) /
            static_cast<double>(messages[i].period);
  }
  result.bus_utilization = util;

  for (std::size_t i = 0; i < messages.size(); ++i) {
    const CanMessage& m = messages[i];
    const SimTime deadline = resolved_deadline(m.deadline, m.period);
    const MessageBound ff =
        analyze_one(messages, p, i, m.jitter, deadline, 0);
    const MessageBound op =
        faulted ? analyze_one(messages, p, i, m.jitter, deadline,
                              errors.min_interarrival)
                : ff;
    result.response_fault_free[i] = ff.response;
    result.response_faulted[i] = op.response;
    result.message_ok[i] = op.ok;
  }

  // The operative bound (and verdict) includes the fault hypothesis when
  // one is given.
  result.response = result.response_faulted;
  result.schedulable = true;
  for (const bool ok : result.message_ok) {
    result.schedulable = result.schedulable && ok;
  }
  return result;
}

namespace {

// One hop of the holistic composition: inherit `inherited` ns of upstream
// jitter (accumulated bound + gateway latency), analyze the routed message
// alone in the pass whose result is read, and return the new cumulative
// bound — the response already includes the jitter term, so it *is*
// end-to-end from the source release.
[[nodiscard]] SimTime hop_bound(const PathHop& hop, const PreparedSet& p,
                                SimTime inherited, SimTime t_error,
                                bool& ok) {
  const CanMessage& m = hop.messages[hop.message];
  const SimTime hop_deadline = resolved_deadline(m.deadline, m.period);
  const SimTime jitter = m.jitter + inherited;
  // Judge this hop on queue-to-delivery (w + C <= hop deadline): the
  // inherited jitter is upstream latency, not a property of this bus, so
  // the deadline check — and the overload escape scaled from it — must not
  // be tightened by it.
  const SimTime deadline = resolved_deadline(jitter + hop_deadline, m.period);
  const MessageBound b =
      analyze_one(hop.messages, p, hop.message, jitter, deadline, t_error);
  ok = ok && b.ok;
  return b.response;
}

}  // namespace

PathRtaResult path_rta(const std::vector<PathHop>& hops, SimTime deadline) {
  ACES_CHECK_MSG(!hops.empty(), "path_rta needs at least one hop");
  PathRtaResult out;
  SimTime cum_ff = 0;
  SimTime cum_op = 0;  // operative: faulted wherever a hop has a model
  bool ok_ff = true;
  bool ok_op = true;
  for (const PathHop& hop : hops) {
    if (hop.analysis) {
      // Fabric plugin: it owns the hop-local bound and verdict; the
      // holistic composition (inherited bound + gateway latency charged as
      // release jitter) is identical to the CAN hops'.
      const HopBound ff =
          hop.analysis(hop, cum_ff + hop.gateway_latency, false);
      ok_ff = ok_ff && ff.ok;
      cum_ff = ff.response;
      const HopBound op =
          hop.analysis(hop, cum_op + hop.gateway_latency, true);
      ok_op = ok_op && op.ok;
      cum_op = op.response;
    } else {
      ACES_CHECK_MSG(hop.message < hop.messages.size(),
                     "path_rta hop message index out of range");
      const PreparedSet p =
          prepare(hop.messages, hop.bitrate_bps, hop.data_bitrate_bps);
      cum_ff = hop_bound(hop, p, cum_ff + hop.gateway_latency, 0, ok_ff);
      cum_op = hop_bound(hop, p, cum_op + hop.gateway_latency,
                         hop.errors.min_interarrival, ok_op);
    }
    out.hop_response.push_back(cum_op);
  }
  out.response_fault_free = cum_ff;
  out.response_faulted = cum_op;
  out.response = cum_op;
  const PathHop& lh = hops.back();
  SimTime e2e_deadline = deadline;
  if (e2e_deadline <= 0) {
    if (lh.analysis) {
      ACES_CHECK_MSG(lh.hop_deadline > 0,
                     "path_rta: a plugin hop ending the path needs "
                     "hop_deadline (or an explicit end-to-end deadline)");
      e2e_deadline = lh.hop_deadline;
    } else {
      const CanMessage& last = lh.messages[lh.message];
      e2e_deadline = resolved_deadline(last.deadline, last.period);
    }
  }
  out.schedulable = ok_op && out.response <= e2e_deadline;
  out.schedulable_fault_free = ok_ff && cum_ff <= e2e_deadline;
  return out;
}

PathHop make_hop(std::vector<CanMessage> messages, std::uint32_t id,
                 std::uint32_t bitrate_bps, SimTime gateway_latency,
                 const CanErrorModel& errors, int bus,
                 std::uint32_t data_bitrate_bps) {
  PathHop hop;
  hop.messages = std::move(messages);
  hop.bitrate_bps = bitrate_bps;
  hop.data_bitrate_bps = data_bitrate_bps;
  hop.gateway_latency = gateway_latency;
  hop.errors = errors;
  hop.bus = bus;
  ACES_CHECK_MSG(bitrate_bps > 0, "make_hop needs a nonzero bit rate");
  std::size_t found = 0;
  for (std::size_t k = 0; k < hop.messages.size(); ++k) {
    if (hop.messages[k].id == id) {
      hop.message = k;
      ++found;
    }
  }
  ACES_CHECK_MSG(found == 1,
                 "make_hop: the analyzed identifier must appear exactly "
                 "once in the hop's message set");
  return hop;
}

}  // namespace aces::sched
