// Schedulability analysis tests, including the load-bearing properties:
// task RTA upper-bounds the simulated kernel, and CAN RTA upper-bounds the
// simulated bus, across randomized workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "can/bus.h"
#include "can/frame.h"
#include "rtos/kernel.h"
#include "sched/can_rta.h"
#include "sched/flexray.h"
#include "sched/rta.h"
#include "support/rng.h"

namespace aces::sched {
namespace {

using sim::kMicrosecond;
using sim::kMillisecond;
using sim::SimTime;

// ----- task RTA -----------------------------------------------------------------

TEST(Rta, TextbookExample) {
  // Classic three-task example (C,T): (1,4) (1,5) (3,10), RM priorities.
  std::vector<RtaTask> tasks = {
      {"t1", 1 * kMillisecond, 4 * kMillisecond, 0, 3, 0, 0},
      {"t2", 1 * kMillisecond, 5 * kMillisecond, 0, 2, 0, 0},
      {"t3", 3 * kMillisecond, 10 * kMillisecond, 0, 1, 0, 0},
  };
  const RtaResult r = response_time_analysis(tasks);
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.response[0], 1 * kMillisecond);
  EXPECT_EQ(r.response[1], 2 * kMillisecond);
  // t3: R = 3 + ceil(R/4) + ceil(R/5) -> fixed point at 7ms.
  EXPECT_EQ(r.response[2], 7 * kMillisecond);
}

TEST(Rta, UnschedulableDetected) {
  std::vector<RtaTask> tasks = {
      {"t1", 3 * kMillisecond, 5 * kMillisecond, 0, 2, 0, 0},
      {"t2", 3 * kMillisecond, 6 * kMillisecond, 0, 1, 0, 0},
  };
  const RtaResult r = response_time_analysis(tasks);
  EXPECT_FALSE(r.schedulable);
  EXPECT_TRUE(r.task_ok[0]);
  EXPECT_FALSE(r.task_ok[1]);
}

TEST(Rta, BlockingExtendsResponse) {
  std::vector<RtaTask> tasks = {
      {"hi", 1 * kMillisecond, 10 * kMillisecond, 0, 2, 0, 0},
      {"lo", 2 * kMillisecond, 20 * kMillisecond, 0, 1, 0, 0},
  };
  std::vector<CriticalSection> cs = {
      {1, 0, 500 * kMicrosecond},  // lo holds R for 0.5ms
  };
  // hi also uses the resource -> ceiling reaches hi.
  cs.push_back({0, 0, 100 * kMicrosecond});
  apply_pcp_blocking(tasks, cs);
  EXPECT_EQ(tasks[0].blocking, 500 * kMicrosecond);
  EXPECT_EQ(tasks[1].blocking, 0);  // nothing below lo
  const RtaResult r = response_time_analysis(tasks);
  EXPECT_EQ(r.response[0], 1 * kMillisecond + 500 * kMicrosecond);
}

TEST(Rta, UtilizationAndBound) {
  std::vector<RtaTask> tasks = {
      {"a", 1 * kMillisecond, 4 * kMillisecond, 0, 2, 0, 0},
      {"b", 2 * kMillisecond, 8 * kMillisecond, 0, 1, 0, 0},
  };
  EXPECT_NEAR(utilization(tasks), 0.5, 1e-9);
  EXPECT_NEAR(liu_layland_bound(1), 1.0, 1e-9);
  EXPECT_NEAR(liu_layland_bound(2), 0.8284, 1e-3);
  EXPECT_GT(liu_layland_bound(2), liu_layland_bound(10));
}

// Property: the simulated kernel never exceeds the analytic bound.
TEST(Rta, DominatesSimulatedKernel) {
  support::Rng256 rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    // Random task set at moderate utilization.
    const int n = 2 + static_cast<int>(rng.next_below(4));
    std::vector<RtaTask> tasks;
    for (int k = 0; k < n; ++k) {
      RtaTask t;
      t.name = "t" + std::to_string(k);
      t.period = (5 + static_cast<SimTime>(rng.next_below(45))) *
                 kMillisecond;
      t.wcet = t.period / (3 + static_cast<SimTime>(rng.next_below(6)) + n);
      t.priority = 100 - k;  // unique priorities
      tasks.push_back(t);
    }
    const RtaResult bound = response_time_analysis(tasks);
    if (!bound.schedulable) {
      continue;  // only compare feasible sets
    }
    sim::EventQueue q;
    rtos::Kernel kernel(q);
    std::vector<rtos::TaskId> ids;
    for (const RtaTask& t : tasks) {
      rtos::Segment seg;
      seg.kind = rtos::Segment::Kind::execute;
      seg.duration = t.wcet;
      ids.push_back(kernel.create_task({t.name, t.priority, {seg}, 0}));
      kernel.set_alarm(ids.back(), 0, t.period);
    }
    kernel.start();
    q.run_until(2 * sim::kSecond);
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      EXPECT_LE(kernel.stats(ids[k]).worst_response, bound.response[k])
          << "trial " << trial << " task " << k;
      EXPECT_GT(kernel.stats(ids[k]).completions, 10u);
    }
  }
}

// ----- CAN RTA --------------------------------------------------------------------

std::vector<CanMessage> sae_like_set() {
  // An SAE-benchmark-flavored body/powertrain message set at 250 kbit/s.
  std::vector<CanMessage> m;
  const auto add = [&m](const char* name, std::uint32_t id, unsigned dlc,
                        SimTime period) {
    m.push_back(CanMessage{name, id, dlc, period, 0, 0});
  };
  add("engine_torque", 0x050, 8, 5 * kMillisecond);
  add("wheel_speed", 0x0A0, 6, 10 * kMillisecond);
  add("brake_pressure", 0x0C0, 4, 10 * kMillisecond);
  add("steering_angle", 0x120, 4, 20 * kMillisecond);
  add("gear_state", 0x200, 2, 50 * kMillisecond);
  add("door_status", 0x400, 1, 100 * kMillisecond);
  add("hvac_state", 0x500, 4, 100 * kMillisecond);
  add("diag_response", 0x7A0, 8, 200 * kMillisecond);
  return m;
}

TEST(CanRta, PriorityOrderRespected) {
  const auto msgs = sae_like_set();
  const CanRtaResult r = can_rta(msgs, 250'000);
  EXPECT_TRUE(r.schedulable);
  EXPECT_LT(r.bus_utilization, 0.5);
  // The top-priority message's worst case is its own time plus one
  // blocking frame.
  const SimTime tau = sim::kSecond / 250'000;
  const SimTime c0 = tau * can::worst_case_wire_bits(8);
  EXPECT_LE(r.response[0], 2 * c0 + tau);
  // Lower priorities wait longer.
  EXPECT_GT(r.response.back(), r.response.front());
}

// ----- end-to-end path RTA across gateway hops -------------------------------

TEST(PathRta, SingleHopMatchesCanRta) {
  const auto msgs = sae_like_set();
  const CanRtaResult direct = can_rta(msgs, 250'000);
  for (std::size_t k = 0; k < msgs.size(); ++k) {
    PathHop hop;
    hop.messages = msgs;
    hop.message = k;
    hop.bitrate_bps = 250'000;
    const PathRtaResult r = path_rta({hop});
    EXPECT_EQ(r.response, direct.response[k]);
    EXPECT_EQ(r.response_fault_free, direct.response_fault_free[k]);
    EXPECT_EQ(r.hop_response.size(), 1u);
    EXPECT_EQ(r.schedulable, direct.message_ok[k]);
    EXPECT_EQ(r.schedulable_fault_free, r.schedulable);  // no fault model
  }
}

TEST(PathRta, SecondHopComposesJitterAndLatency) {
  const auto src = sae_like_set();
  std::vector<CanMessage> dst = {
      {"local_hp", 0x040, 8, 5 * kMillisecond, 0, 0},
      {"routed", 0x0A0, 6, 10 * kMillisecond, 0, 0},  // wheel_speed bridged
      {"local_lp", 0x600, 4, 50 * kMillisecond, 0, 0},
  };
  PathHop h0;
  h0.messages = src;
  h0.message = 1;  // wheel_speed on the source bus
  h0.bitrate_bps = 250'000;
  PathHop h1;
  h1.messages = dst;
  h1.message = 1;
  h1.bitrate_bps = 125'000;
  h1.gateway_latency = 500 * kMicrosecond;
  const PathRtaResult two = path_rta({h0, h1});
  const PathRtaResult one = path_rta({h0});

  EXPECT_TRUE(two.schedulable);
  // The composed bound strictly exceeds the source hop plus the gateway
  // latency (the routed frame still has to win egress arbitration)...
  EXPECT_GT(two.response, one.response + h1.gateway_latency);
  EXPECT_EQ(two.hop_response[0], one.response);
  EXPECT_EQ(two.hop_response[1], two.response);
  // ...and grows monotonically with the forwarding latency.
  h1.gateway_latency = 2 * kMillisecond;
  EXPECT_GT(path_rta({h0, h1}).response, two.response);
}

TEST(PathRta, FaultHypothesisOnOneHopInflatesTheBound) {
  const auto src = sae_like_set();
  std::vector<CanMessage> dst = {
      {"routed", 0x0A0, 6, 10 * kMillisecond, 0, 0},
      {"local", 0x200, 8, 10 * kMillisecond, 0, 0},
  };
  PathHop h0;
  h0.messages = src;
  h0.message = 1;
  h0.bitrate_bps = 250'000;
  PathHop h1;
  h1.messages = dst;
  h1.message = 0;
  h1.bitrate_bps = 125'000;
  const PathRtaResult clean = path_rta({h0, h1});
  h1.errors = CanErrorModel{10 * kMillisecond};
  const PathRtaResult faulted = path_rta({h0, h1});
  EXPECT_GT(faulted.response_faulted, faulted.response_fault_free);
  EXPECT_EQ(faulted.response_fault_free, clean.response);
  EXPECT_EQ(faulted.response, faulted.response_faulted);
  // The fault-free verdict survives alongside the operative one.
  EXPECT_EQ(faulted.schedulable_fault_free, clean.schedulable);
}

TEST(CanRta, DominatesSimulatedBus) {
  const auto msgs = sae_like_set();
  const CanRtaResult bound = can_rta(msgs, 250'000);
  ASSERT_TRUE(bound.schedulable);

  sim::EventQueue q;
  can::CanBus bus(q, 250'000);
  const can::NodeId tx = bus.attach_node("tx");
  (void)bus.attach_node("rx");
  // Periodic senders with deterministic phase 0 (critical instant-ish).
  for (const CanMessage& m : msgs) {
    q.schedule_every(m.period, [&bus, m, tx]() {
      can::CanFrame f;
      f.id = m.id;
      f.dlc = m.dlc;
      bus.send(tx, f);
    });
  }
  q.run_until(2 * sim::kSecond);
  for (std::size_t k = 0; k < msgs.size(); ++k) {
    const auto it = bus.stats().find(msgs[k].id);
    ASSERT_NE(it, bus.stats().end()) << msgs[k].name;
    EXPECT_LE(it->second.worst_latency, bound.response[k]) << msgs[k].name;
    EXPECT_GT(it->second.sent, 5u);
  }
}

TEST(CanRta, HighLoadStillBounded) {
  // Push utilization near saturation; the analysis must stay sound.
  std::vector<CanMessage> msgs;
  for (int k = 0; k < 12; ++k) {
    CanMessage m;
    m.name = "m" + std::to_string(k);
    m.id = static_cast<std::uint32_t>(0x100 + k * 16);
    m.dlc = 8;
    m.period = 10 * kMillisecond;
    msgs.push_back(m);
  }
  const CanRtaResult r = can_rta(msgs, 250'000);
  EXPECT_GT(r.bus_utilization, 0.6);
  // Lowest priority message has a dramatically larger bound.
  EXPECT_GT(r.response.back(), 4 * r.response.front());
}

TEST(CanRta, OverloadedSetReportsUnschedulable) {
  // Regression: the busy-period overload escape used to truncate before
  // q_max was derived, so instances beyond the cut were never examined
  // while the message could still be reported as meeting its deadline.
  // A truncated busy period must force message_ok = false.
  std::vector<CanMessage> msgs;
  for (int k = 0; k < 5; ++k) {
    CanMessage m;
    m.name = "m" + std::to_string(k);
    m.id = static_cast<std::uint32_t>(0x100 + k * 16);
    m.dlc = 8;
    m.period = 2 * kMillisecond;
    msgs.push_back(m);
  }
  const CanRtaResult r = can_rta(msgs, 125'000);  // ~270% load
  EXPECT_GT(r.bus_utilization, 2.0);
  EXPECT_FALSE(r.schedulable);
  // Every message whose level-i busy period diverges is flagged; only the
  // top-priority message (54% local load) can still converge.
  EXPECT_FALSE(r.message_ok.back());
  for (std::size_t k = 1; k < msgs.size(); ++k) {
    EXPECT_FALSE(r.message_ok[k]) << msgs[k].name;
  }
}

TEST(CanRta, ErrorTermInflatesBoundsMonotonically) {
  const auto msgs = sae_like_set();
  const CanRtaResult plain = can_rta(msgs, 250'000);
  const CanRtaResult faulted =
      can_rta(msgs, 250'000, CanErrorModel{10 * kMillisecond});
  const CanRtaResult stormy =
      can_rta(msgs, 250'000, CanErrorModel{1 * kMillisecond});
  for (std::size_t k = 0; k < msgs.size(); ++k) {
    // Without a model both reported vectors collapse to fault-free.
    EXPECT_EQ(plain.response[k], plain.response_fault_free[k]);
    EXPECT_EQ(plain.response_faulted[k], plain.response_fault_free[k]);
    // With a model, the operative bound is the faulted one, the
    // fault-free vector matches the plain analysis, and more frequent
    // errors mean (weakly) larger bounds.
    EXPECT_EQ(faulted.response_fault_free[k], plain.response[k]);
    EXPECT_EQ(faulted.response[k], faulted.response_faulted[k]);
    EXPECT_GT(faulted.response[k], plain.response[k]);
    EXPECT_GE(stormy.response[k], faulted.response[k]);
  }
  EXPECT_TRUE(faulted.schedulable);
}

TEST(CanRta, MixedFormatPriorityFollowsWireArbitration) {
  // Regression: priority used to be the raw identifier, so an extended
  // message's numerically-huge 29-bit id was treated as lowest priority
  // even though its 11-bit base wins arbitration on the wire — and the
  // simulated bus violated the "analysis >= simulation" property.
  std::vector<CanMessage> msgs = {
      {"e0", 0x0F0u << 18, 8, 2 * kMillisecond, 0, 0, true},
      {"e1", 0x0F1u << 18, 8, 2 * kMillisecond, 0, 0, true},
      {"std", 0x100, 8, 20 * kMillisecond, 0, 0, false},
  };
  const CanRtaResult bound = can_rta(msgs, 250'000);
  ASSERT_TRUE(bound.schedulable);
  // The standard message is the lowest wire priority: its bound includes
  // interference from both extended streams, not just one blocking frame.
  const SimTime tau = sim::kSecond / 250'000;
  const SimTime c_ext = tau * can::worst_case_wire_bits(8, true);
  EXPECT_GE(bound.response[2], 2 * c_ext);

  sim::EventQueue q;
  can::CanBus bus(q, 250'000);
  const can::NodeId tx = bus.attach_node("tx");
  (void)bus.attach_node("rx");
  for (const CanMessage& m : msgs) {
    q.schedule_every(m.period, [&bus, m, tx]() {
      can::CanFrame f;
      f.id = m.id;
      f.extended = m.extended;
      f.dlc = m.dlc;
      bus.send(tx, f);
    });
  }
  q.run_until(2 * sim::kSecond);
  for (std::size_t k = 0; k < msgs.size(); ++k) {
    const auto it = bus.stats().find(msgs[k].id);
    ASSERT_NE(it, bus.stats().end()) << msgs[k].name;
    EXPECT_LE(it->second.worst_latency, bound.response[k]) << msgs[k].name;
  }
}

TEST(CanRta, ExtendedFramesUseTheLongerWorstCase) {
  std::vector<CanMessage> std_set = sae_like_set();
  std::vector<CanMessage> ext_set = sae_like_set();
  for (auto& m : ext_set) {
    m.extended = true;
  }
  const CanRtaResult a = can_rta(std_set, 250'000);
  const CanRtaResult b = can_rta(ext_set, 250'000);
  EXPECT_GT(b.bus_utilization, a.bus_utilization);
  for (std::size_t k = 0; k < std_set.size(); ++k) {
    EXPECT_GT(b.response[k], a.response[k]);
  }
}

TEST(CanRta, ZeroBitRateIsRejected) {
  // Regression: a zero bit rate divided kSecond by zero (SIGFPE), taking
  // down a whole campaign batch instead of failing the one variant.
  const auto msgs = sae_like_set();
  EXPECT_THROW((void)can_rta(msgs, 0), std::logic_error);
  EXPECT_THROW((void)can_rta(msgs, 0, CanErrorModel{10 * kMillisecond}),
               std::logic_error);
  EXPECT_THROW((void)make_hop(msgs, 0x0A0, 0), std::logic_error);
  PathHop hop = make_hop(msgs, 0x0A0, 250'000);
  hop.bitrate_bps = 0;
  EXPECT_THROW((void)path_rta({hop}), std::logic_error);
  PathHop src = make_hop(msgs, 0x0A0, 250'000);
  EXPECT_THROW((void)path_rta({src, hop}), std::logic_error);
}

// ----- path RTA against the whole-set reference ------------------------------

// Reference per-hop bound, computed the whole-set way: copy the set, add
// the inherited jitter to the analyzed message, judge it on
// queue-to-delivery, run can_rta over every message and read back the one
// result.
SimTime reference_hop_bound(const PathHop& hop, SimTime inherited,
                            const CanErrorModel& errors, bool& ok) {
  std::vector<CanMessage> msgs = hop.messages;
  CanMessage& m = msgs[hop.message];
  const SimTime hop_deadline = m.deadline > 0 ? m.deadline : m.period;
  m.jitter += inherited;
  m.deadline = m.jitter + hop_deadline;
  const CanRtaResult r =
      can_rta(msgs, hop.bitrate_bps, errors, hop.data_bitrate_bps);
  ok = ok && r.message_ok[hop.message];
  return r.response[hop.message];
}

// The holistic composition over reference_hop_bound (CAN hops only).
PathRtaResult reference_path_rta(const std::vector<PathHop>& hops) {
  PathRtaResult out;
  SimTime cum_ff = 0;
  SimTime cum_op = 0;
  bool ok_ff = true;
  bool ok_op = true;
  for (const PathHop& hop : hops) {
    cum_ff = reference_hop_bound(hop, cum_ff + hop.gateway_latency,
                                 CanErrorModel{}, ok_ff);
    cum_op = reference_hop_bound(hop, cum_op + hop.gateway_latency,
                                 hop.errors, ok_op);
    out.hop_response.push_back(cum_op);
  }
  out.response_fault_free = cum_ff;
  out.response_faulted = cum_op;
  out.response = cum_op;
  const CanMessage& last = hops.back().messages[hops.back().message];
  const SimTime deadline = last.deadline > 0 ? last.deadline : last.period;
  out.schedulable = ok_op && cum_op <= deadline;
  out.schedulable_fault_free = ok_ff && cum_ff <= deadline;
  return out;
}

// A random hop: 2-9 messages with unique wire priorities, mixing standard
// and extended identifiers and classic, FD and FD-without-BRS frames, on a
// bus with or without an FD data rate. An `overloaded` set's low-priority
// messages take the busy-period truncation and 100x-deadline escapes;
// tight explicit deadlines push the escapes further up the priority order.
PathHop random_hop(support::Rng256& rng, bool overloaded) {
  static constexpr std::uint32_t kRates[] = {125'000, 250'000, 500'000,
                                             1'000'000};
  PathHop hop;
  hop.bitrate_bps = kRates[rng.next_below(4)];
  hop.data_bitrate_bps =
      rng.chance(0.5) ? 0 : static_cast<std::uint32_t>(rng.next_in(2, 8)) *
                                1'000'000;
  const auto n = static_cast<std::size_t>(rng.next_in(2, 9));
  std::vector<std::uint32_t> keys;
  while (hop.messages.size() < n) {
    CanMessage m;
    m.extended = rng.chance(0.3);
    m.id = m.extended ? static_cast<std::uint32_t>(rng.next_below(1u << 29))
                      : static_cast<std::uint32_t>(rng.next_below(1u << 11));
    can::CanFrame f;
    f.id = m.id;
    f.extended = m.extended;
    const std::uint32_t key = can::arbitration_key(f);
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) {
      continue;
    }
    keys.push_back(key);
    m.name = "m" + std::to_string(hop.messages.size());
    m.fd = rng.chance(0.4);
    m.brs = rng.chance(0.7);
    m.dlc = static_cast<unsigned>(rng.next_in(0, m.fd ? 15 : 8));
    m.period = overloaded ? rng.next_in(200, 1'500) * kMicrosecond
                          : rng.next_in(2, 50) * kMillisecond;
    m.jitter = rng.chance(0.5) ? 0 : rng.next_in(0, 2'000) * kMicrosecond;
    if (rng.chance(0.15)) {
      m.deadline = rng.next_in(100, 5'000) * kMicrosecond;
    }
    hop.messages.push_back(m);
  }
  hop.message = rng.next_below(n);
  hop.gateway_latency = rng.next_in(0, 500) * kMicrosecond;
  if (rng.chance(0.5)) {
    hop.errors.min_interarrival = rng.next_in(300, 20'000) * kMicrosecond;
  }
  return hop;
}

TEST(PathRta, MatchesWholeSetReferenceOnRandomPaths) {
  support::Rng256 rng(0x5EED'0018);
  int unschedulable = 0;
  int faulted_apart = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::vector<PathHop> hops;
    const auto len = rng.next_in(1, 3);
    // Overload only ends a path: the escapes return bounds near 100x the
    // deadline, and inheriting one as jitter multiplies the instances the
    // next hop must examine (seconds of analysis per path).
    for (std::int64_t k = 0; k < len; ++k) {
      hops.push_back(random_hop(rng, k + 1 == len && rng.chance(0.3)));
    }
    hops.front().gateway_latency = 0;
    const PathRtaResult want = reference_path_rta(hops);
    const PathRtaResult got = path_rta(hops);
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_EQ(got.response, want.response);
    EXPECT_EQ(got.response_fault_free, want.response_fault_free);
    EXPECT_EQ(got.response_faulted, want.response_faulted);
    EXPECT_EQ(got.hop_response, want.hop_response);
    EXPECT_EQ(got.schedulable, want.schedulable);
    EXPECT_EQ(got.schedulable_fault_free, want.schedulable_fault_free);
    unschedulable += want.schedulable_fault_free ? 0 : 1;
    faulted_apart += want.response_faulted != want.response_fault_free;
  }
  // The draw reaches both verdicts and both passes.
  EXPECT_GT(unschedulable, 60);
  EXPECT_LT(unschedulable, 540);
  EXPECT_GT(faulted_apart, 60);
}

// ----- FlexRay ---------------------------------------------------------------------

TEST(Flexray, AssignsWithoutCollision) {
  FlexrayConfig cfg;
  cfg.cycle_length = 5 * kMillisecond;
  cfg.static_slots = 10;
  cfg.slot_length = 100 * kMicrosecond;
  std::vector<FlexrayFrame> frames;
  for (int k = 0; k < 8; ++k) {
    frames.push_back(
        FlexrayFrame{"f" + std::to_string(k), k % 3,
                     (k % 2 == 0 ? 5 : 10) * kMillisecond});
  }
  const FlexraySchedule s = build_static_schedule(cfg, frames);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.assignments.size(), frames.size());
  // No two assignments may ever collide in the same slot instance.
  for (std::size_t a = 0; a < s.assignments.size(); ++a) {
    for (std::size_t b = a + 1; b < s.assignments.size(); ++b) {
      const auto& x = s.assignments[a];
      const auto& y = s.assignments[b];
      if (x.slot != y.slot) {
        continue;
      }
      for (unsigned cycle = 0; cycle < 64; ++cycle) {
        const bool xs = cycle % x.repetition == x.base_cycle;
        const bool ys = cycle % y.repetition == y.base_cycle;
        EXPECT_FALSE(xs && ys) << "slot collision in cycle " << cycle;
      }
    }
  }
}

TEST(Flexray, InfeasibleWhenOverloaded) {
  FlexrayConfig cfg;
  cfg.cycle_length = 1 * kMillisecond;
  cfg.static_slots = 2;
  cfg.slot_length = 100 * kMicrosecond;
  std::vector<FlexrayFrame> frames;
  for (int k = 0; k < 5; ++k) {
    frames.push_back(FlexrayFrame{"f" + std::to_string(k), 0,
                                  1 * kMillisecond});  // all every cycle
  }
  EXPECT_FALSE(build_static_schedule(cfg, frames).feasible);
}

TEST(Flexray, LatencyBoundedByRepetition) {
  FlexrayConfig cfg;
  std::vector<FlexrayFrame> frames = {
      {"fast", 0, cfg.cycle_length},
      {"slow", 1, cfg.cycle_length * 4},
  };
  const FlexraySchedule s = build_static_schedule(cfg, frames);
  ASSERT_TRUE(s.feasible);
  EXPECT_LE(s.of(0).worst_latency,
            cfg.cycle_length + cfg.slot_length * cfg.static_slots);
  EXPECT_GT(s.of(1).worst_latency, s.of(0).worst_latency);
}

TEST(Flexray, UtilizationReported) {
  FlexrayConfig cfg;
  cfg.static_slots = 4;
  std::vector<FlexrayFrame> frames = {
      {"a", 0, cfg.cycle_length},      // rep 1: one full slot
      {"b", 1, cfg.cycle_length * 2},  // rep 2: half a slot
  };
  const FlexraySchedule s = build_static_schedule(cfg, frames);
  ASSERT_TRUE(s.feasible);
  EXPECT_NEAR(s.static_utilization, (1.0 + 0.5) / 4.0, 1e-9);
}

}  // namespace
}  // namespace aces::sched
