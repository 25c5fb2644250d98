// CAN fault-model tests: error frames, automatic retransmission, the
// TEC/REC fault-confinement state machine, bus-off recovery, and the
// load-bearing differential property — under injected bit errors, every
// simulated latency stays below the faulted response-time bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "can/bit_error.h"
#include "can/bus.h"
#include "can/frame.h"
#include "sched/can_rta.h"
#include "support/rng.h"

namespace aces::can {
namespace {

using sim::kMillisecond;
using sim::SimTime;

CanFrame frame(std::uint32_t id, unsigned dlc, std::uint8_t fill = 0) {
  CanFrame f;
  f.id = id;
  f.dlc = dlc;
  f.data.fill(fill);
  return f;
}

struct BusFixture {
  sim::EventQueue q;
  CanBus bus{q, 500'000};  // 500 kbit/s -> 2 us/bit
  NodeId a = bus.attach_node("a");
  NodeId b = bus.attach_node("b");
};

// Corrupts bit 0 of the next `n` transmission attempts.
CanBus::BitErrorModel corrupt_next(int& n) {
  return [&n](const CanFrame&, NodeId, SimTime) {
    if (n > 0) {
      --n;
      return 0;
    }
    return -1;
  };
}

TEST(CanFault, CorruptedFrameIsRetransmittedAndDeliveredOnce) {
  BusFixture f;
  int to_corrupt = 1;
  f.bus.set_bit_error_model(corrupt_next(to_corrupt));
  int received = 0;
  SimTime delivered_at = 0;
  f.bus.subscribe(f.b, [&](const CanFrame& fr, SimTime at) {
    EXPECT_EQ(fr.id, 0x100u);
    ++received;
    delivered_at = at;
  });
  const CanFrame fr = frame(0x100, 4, 0x5A);
  f.bus.send(f.a, fr);
  f.q.run_until(sim::kSecond);

  EXPECT_EQ(received, 1);  // exactly one delivery despite the retry
  EXPECT_EQ(f.bus.fault_stats().bit_errors, 1u);
  EXPECT_EQ(f.bus.fault_stats().retransmissions, 1u);
  const auto& s = f.bus.stats().at(0x100);
  EXPECT_EQ(s.sent, 1u);
  EXPECT_EQ(s.errors, 1u);
  // Latency is exact: 1 corrupted bit + active error frame (6 flag +
  // 8 delimiter + 3 intermission), then the full retransmission.
  const SimTime expect =
      f.bus.bit_time() * (1 + CanBus::kErrorFlagBits +
                          CanBus::kErrorDelimiterBits +
                          CanBus::kIntermissionBits) +
      f.bus.frame_time(fr);
  EXPECT_EQ(s.worst_latency, expect);
  EXPECT_EQ(delivered_at, expect);
  // Counters: transmit error +8, then the successful retry -1; the
  // receiver's observed error +1 counts down on the clean reception.
  EXPECT_EQ(f.bus.tec(f.a), 7u);
  EXPECT_EQ(f.bus.rec(f.b), 0u);
  EXPECT_EQ(f.bus.error_state(f.a), ErrorState::error_active);
}

TEST(CanFault, StateMachineWalksActivePassiveBusOffAndRecovers) {
  BusFixture f;
  int to_corrupt = 32;  // 32 x (+8) drives TEC to 256 -> bus-off
  f.bus.set_bit_error_model(corrupt_next(to_corrupt));
  std::vector<CanBus::ErrorEvent> events;
  f.bus.subscribe_err(f.a, [&](const CanBus::ErrorEvent& e, SimTime) {
    events.push_back(e);
  });
  int received = 0;
  f.bus.subscribe(f.b, [&](const CanFrame&, SimTime) { ++received; });
  f.bus.send(f.a, frame(0x123, 2));
  f.q.run_until(sim::kSecond);

  EXPECT_EQ(f.bus.fault_stats().bit_errors, 32u);
  EXPECT_EQ(f.bus.fault_stats().bus_off_events, 1u);
  EXPECT_EQ(f.bus.fault_stats().recoveries, 1u);
  // After auto-recovery the pending frame finally goes through.
  EXPECT_EQ(received, 1);
  EXPECT_EQ(f.bus.error_state(f.a), ErrorState::error_active);
  EXPECT_EQ(f.bus.tec(f.a), 0u);  // recovery clears the counters

  // The state-change walk: error-active -> error-passive (TEC 128) ->
  // bus-off (TEC > 255) -> error-active (recovery).
  std::vector<ErrorState> walk;
  for (const auto& e : events) {
    if (e.kind == CanBus::ErrorEvent::Kind::state_change) {
      walk.push_back(e.state);
    }
  }
  ASSERT_EQ(walk.size(), 3u);
  EXPECT_EQ(walk[0], ErrorState::error_passive);
  EXPECT_EQ(walk[1], ErrorState::bus_off);
  EXPECT_EQ(walk[2], ErrorState::error_active);
  // tx_error events carry the post-bump TEC; the 16th crossing reads 128.
  std::vector<unsigned> tecs;
  for (const auto& e : events) {
    if (e.kind == CanBus::ErrorEvent::Kind::tx_error) {
      tecs.push_back(e.tec);
    }
  }
  ASSERT_EQ(tecs.size(), 32u);
  EXPECT_EQ(tecs[0], 8u);
  EXPECT_EQ(tecs[15], 128u);
  EXPECT_EQ(tecs[31], 256u);
}

TEST(CanFault, BusOffRecoveryTakes128x11RecessiveBits) {
  BusFixture f;
  int to_corrupt = 32;
  f.bus.set_bit_error_model(corrupt_next(to_corrupt));
  SimTime bus_off_at = -1;
  SimTime recovered_at = -1;
  f.bus.subscribe_err(f.a, [&](const CanBus::ErrorEvent& e, SimTime at) {
    if (e.kind != CanBus::ErrorEvent::Kind::state_change) {
      return;
    }
    if (e.state == ErrorState::bus_off) {
      bus_off_at = at;
    } else if (e.state == ErrorState::error_active) {
      recovered_at = at;
    }
  });
  f.bus.send(f.a, frame(0x123, 2));
  f.q.run_until(sim::kSecond);
  ASSERT_GE(bus_off_at, 0);
  ASSERT_GE(recovered_at, 0);
  EXPECT_EQ(recovered_at - bus_off_at,
            f.bus.bit_time() * CanBus::kBusOffRecoveryBits);
}

TEST(CanFault, ManualRecoveryWaitsForSoftwareRequest) {
  BusFixture f;
  f.bus.set_manual_bus_off_recovery(f.a, true);
  int to_corrupt = 32;
  f.bus.set_bit_error_model(corrupt_next(to_corrupt));
  int received = 0;
  f.bus.subscribe(f.b, [&](const CanFrame&, SimTime) { ++received; });
  f.bus.send(f.a, frame(0x123, 2));
  f.q.run_until(sim::kSecond);

  // No request: the node stays off the bus indefinitely.
  EXPECT_EQ(f.bus.error_state(f.a), ErrorState::bus_off);
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.bus.fault_stats().recoveries, 0u);

  f.bus.request_recovery(f.a);
  f.q.run_until(f.q.now() + sim::kSecond);
  EXPECT_EQ(f.bus.error_state(f.a), ErrorState::error_active);
  EXPECT_EQ(received, 1);  // the pending frame survived bus-off
  EXPECT_EQ(f.bus.fault_stats().recoveries, 1u);
}

TEST(CanFault, SwitchingToManualRevokesAnArmedAutoRecovery) {
  BusFixture f;
  int to_corrupt = 32;
  f.bus.set_bit_error_model(corrupt_next(to_corrupt));
  f.bus.send(f.a, frame(0x123, 2));
  // Step until bus-off; the auto-recovery timer is now armed.
  while (f.bus.error_state(f.a) != ErrorState::bus_off &&
         f.q.step(sim::kSecond)) {
  }
  ASSERT_EQ(f.bus.error_state(f.a), ErrorState::bus_off);
  // Claiming the node for software-controlled recovery must cancel the
  // pending timer: the node stays off the wire until request_recovery().
  f.bus.set_manual_bus_off_recovery(f.a, true);
  f.q.run_until(f.q.now() + sim::kSecond);
  EXPECT_EQ(f.bus.error_state(f.a), ErrorState::bus_off);
  EXPECT_EQ(f.bus.fault_stats().recoveries, 0u);
  f.bus.request_recovery(f.a);
  f.q.run_until(f.q.now() + sim::kSecond);
  EXPECT_EQ(f.bus.error_state(f.a), ErrorState::error_active);
  EXPECT_EQ(f.bus.fault_stats().recoveries, 1u);
}

TEST(CanFault, ReceiveErrorCounterSaturatesLikeAn8BitCounter) {
  // 10 bus-off cycles x 32 errors each would push the receiver's REC to
  // 320 unbounded; it must saturate at 255 (the controller's ERRCNT
  // register packs REC into 9 bits and guest code reads it live).
  BusFixture f;
  int to_corrupt = 320;
  f.bus.set_bit_error_model(corrupt_next(to_corrupt));
  f.bus.send(f.a, frame(0x123, 2));
  f.q.run_until(sim::kSecond);
  EXPECT_EQ(f.bus.fault_stats().bus_off_events, 10u);
  EXPECT_EQ(f.bus.fault_stats().recoveries, 10u);
  // Saturated at 255 through the storm, minus one for the clean final
  // exchange after the 10th recovery.
  EXPECT_EQ(f.bus.rec(f.b), 254u);
  EXPECT_EQ(f.bus.tec(f.a), 0u);  // cleared by the last recovery
  EXPECT_EQ(f.bus.stats().at(0x123).sent, 1u);
}

TEST(CanFault, BusOffNodeIsDisconnectedFromArbitrationAndDelivery) {
  BusFixture f;
  // Only node b's transmissions are corrupted.
  f.bus.set_manual_bus_off_recovery(f.b, true);
  f.bus.set_bit_error_model(
      [&f](const CanFrame&, NodeId tx, SimTime) { return tx == f.b ? 0 : -1; });
  int b_received = 0;
  f.bus.subscribe(f.b, [&](const CanFrame&, SimTime) { ++b_received; });
  f.bus.send(f.b, frame(0x050, 1));  // b hammers itself into bus-off
  f.q.run_until(sim::kSecond);
  ASSERT_EQ(f.bus.error_state(f.b), ErrorState::bus_off);

  // Traffic from a flows cleanly (b's pending 0x050 cannot interfere) and
  // is not delivered to the dead node.
  int a_sent = 0;
  f.bus.subscribe_tx(f.a, [&](const CanFrame&, SimTime) { ++a_sent; });
  f.bus.send(f.a, frame(0x100, 1));
  f.q.run_until(f.q.now() + sim::kSecond);
  EXPECT_EQ(a_sent, 1);
  EXPECT_EQ(b_received, 0);
  EXPECT_EQ(f.bus.stats().at(0x100).errors, 0u);
}

TEST(CanFault, ErrorModelMaySendReentrantly) {
  // The wire is claimed before the model runs: a model that reacts to a
  // corruption by injecting traffic (e.g. a diagnostic frame) must not
  // start a nested transmission or displace the in-flight frame.
  BusFixture f;
  bool once = true;
  f.bus.set_bit_error_model(
      [&](const CanFrame& fr, NodeId, SimTime) -> int {
        if (fr.id == 0x200 && once) {
          once = false;
          f.bus.send(f.b, frame(0x050, 1));
          return 3;
        }
        return -1;
      });
  const NodeId c = f.bus.attach_node("c");
  std::vector<std::uint32_t> order;
  f.bus.subscribe(c, [&](const CanFrame& fr, SimTime) {
    order.push_back(fr.id);
  });
  f.bus.send(f.a, frame(0x200, 1));
  f.q.run_until(sim::kSecond);
  // The injected high-priority frame wins the post-error arbitration,
  // then the corrupted frame retransmits.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0x050u);
  EXPECT_EQ(order[1], 0x200u);
  EXPECT_EQ(f.bus.fault_stats().bit_errors, 1u);
  EXPECT_EQ(f.bus.fault_stats().retransmissions, 1u);
}

TEST(CanFault, ErrorPassiveTransmitterPaysTheSuspendPenalty) {
  BusFixture f;
  int to_corrupt = 17;  // 16 errors reach TEC 128 (passive); one more while
                        // passive takes the suspend-transmission penalty
  f.bus.set_bit_error_model(corrupt_next(to_corrupt));
  f.bus.send(f.a, frame(0x123, 0));
  f.q.run_until(sim::kSecond);
  const auto& s = f.bus.stats().at(0x123);
  ASSERT_EQ(s.sent, 1u);
  const SimTime active_err =
      f.bus.bit_time() * (1 + CanBus::kErrorFlagBits +
                          CanBus::kErrorDelimiterBits +
                          CanBus::kIntermissionBits);
  const SimTime passive_err =
      active_err + f.bus.bit_time() * CanBus::kSuspendTransmissionBits;
  EXPECT_EQ(s.worst_latency,
            16 * active_err + passive_err + f.bus.frame_time(frame(0x123, 0)));
}

// ----- the differential property -------------------------------------------
//
// An SAE-flavored message set runs for seconds under a seeded bit-error
// campaign whose error instants are spaced at least T_error apart; every
// observed queue-to-delivery latency must stay below the faulted
// analytical bound R_faulted = RTA + E(t). This is the fault-extended twin
// of sched_test's CanRta.DominatesSimulatedBus.
TEST(CanFault, FaultedRtaDominatesSimulatedBusUnderInjectedErrors) {
  std::vector<sched::CanMessage> msgs;
  const auto add = [&msgs](const char* name, std::uint32_t id, unsigned dlc,
                           SimTime period) {
    msgs.push_back(sched::CanMessage{name, id, dlc, period, 0, 0, false});
  };
  add("engine_torque", 0x050, 8, 5 * kMillisecond);
  add("wheel_speed", 0x0A0, 6, 10 * kMillisecond);
  add("brake_pressure", 0x0C0, 4, 10 * kMillisecond);
  add("steering_angle", 0x120, 4, 20 * kMillisecond);
  add("gear_state", 0x200, 2, 50 * kMillisecond);
  add("hvac_state", 0x500, 4, 100 * kMillisecond);

  // Spacing is chosen so TEC decay (-1 per success, ~480 frames/s) beats
  // TEC growth (+8 per error): the transmitter stays error-active and the
  // campaign never triggers bus-off (whose recovery the RTA term does not
  // model).
  const SimTime t_error = 20 * kMillisecond;
  const sched::CanRtaResult bound =
      sched::can_rta(msgs, 250'000, sched::CanErrorModel{t_error});
  ASSERT_TRUE(bound.schedulable);
  for (std::size_t k = 0; k < msgs.size(); ++k) {
    // The error term strictly inflates every bound.
    EXPECT_GT(bound.response_faulted[k], bound.response_fault_free[k]);
    EXPECT_EQ(bound.response[k], bound.response_faulted[k]);
  }

  sim::EventQueue q;
  CanBus bus(q, 250'000);
  const NodeId tx = bus.attach_node("tx");
  (void)bus.attach_node("rx");

  // Seeded campaign: a coin flip per eligible attempt, corrupting a
  // uniformly chosen wire bit, with the *error instants* spaced at least
  // T_error apart — the shared seeded model campaign runs use.
  SeededErrorCampaign campaign;
  campaign.min_interarrival = t_error;
  campaign.probability = 0.6;
  campaign.seed = 97;
  bus.set_bit_error_model(make_seeded_error_model(bus, campaign));

  for (const sched::CanMessage& m : msgs) {
    q.schedule_every(m.period, [&bus, m, tx]() {
      CanFrame f;
      f.id = m.id;
      f.dlc = m.dlc;
      bus.send(tx, f);
    });
  }
  q.run_until(4 * sim::kSecond);

  EXPECT_GT(bus.fault_stats().bit_errors, 50u);  // the campaign had teeth
  EXPECT_EQ(bus.fault_stats().bus_off_events, 0u);
  std::uint64_t total_errors = 0;
  for (std::size_t k = 0; k < msgs.size(); ++k) {
    const auto it = bus.stats().find(msgs[k].id);
    ASSERT_NE(it, bus.stats().end()) << msgs[k].name;
    EXPECT_LE(it->second.worst_latency, bound.response[k]) << msgs[k].name;
    EXPECT_GT(it->second.sent, 30u) << msgs[k].name;
    total_errors += it->second.errors;
  }
  EXPECT_EQ(total_errors, bus.fault_stats().bit_errors);
}

TEST(CanFault, SeededCampaignOnAnFdBusPricesErrorsPerPhase) {
  // The same seeded model on a mixed classic + CAN FD bus: FD attempts are
  // sized by their phase-split wire bits and every error instant is placed
  // with the bus's own per-phase timing, so the E(t) spacing hypothesis
  // holds on the wire the bus actually prices.
  sim::EventQueue q;
  CanBus bus(q, 500'000, 2'000'000);  // 2 us nominal, 0.5 us data phase
  const NodeId tx = bus.attach_node("tx");
  (void)bus.attach_node("rx");

  // Spaced so TEC decay (-1 per success, ~700 frames/s) beats TEC growth
  // (+8 per error): the transmitter never reaches bus-off.
  SeededErrorCampaign campaign;
  campaign.min_interarrival = 20 * kMillisecond;
  campaign.probability = 0.5;
  campaign.seed = 41;
  const CanBus::BitErrorModel seeded = make_seeded_error_model(bus, campaign);
  std::vector<SimTime> instants;
  int fd_data_phase_errors = 0;
  bus.set_bit_error_model([&](const CanFrame& f, NodeId n, SimTime start) {
    const int bit = seeded(f, n, start);
    if (bit >= 0) {
      const CanBus::AttemptTiming t = bus.attempt_timing(f);
      EXPECT_LT(static_cast<unsigned>(bit), t.bits);
      instants.push_back(start + t.prefix(static_cast<unsigned>(bit) + 1));
      if (f.fd && static_cast<unsigned>(bit) >= t.head &&
          static_cast<unsigned>(bit) < t.head + t.data_bits) {
        ++fd_data_phase_errors;
      }
    }
    return bit;
  });

  CanFrame fd;
  fd.id = 0x100;
  fd.fd = true;
  fd.brs = true;
  fd.dlc = 15;  // 64 bytes
  fd.data.fill(0x5A);
  const CanFrame classic = frame(0x200, 8, 0xA5);
  int fd_sent = 0;
  int classic_sent = 0;
  q.schedule_every(2 * kMillisecond, [&] {
    bus.send(tx, fd);
    ++fd_sent;
  });
  q.schedule_every(5 * kMillisecond, [&] {
    bus.send(tx, classic);
    ++classic_sent;
  });
  q.run_until(4 * sim::kSecond);

  EXPECT_GT(bus.fault_stats().bit_errors, 50u);
  EXPECT_EQ(bus.fault_stats().bus_off_events, 0u);
  EXPECT_EQ(instants.size(), bus.fault_stats().bit_errors);
  EXPECT_GT(fd_data_phase_errors, 0);
  for (std::size_t k = 1; k < instants.size(); ++k) {
    EXPECT_GE(instants[k] - instants[k - 1], campaign.min_interarrival);
  }
  // Every corrupted frame was retransmitted and delivered.
  EXPECT_GT(bus.stats().at(0x100).errors, 0u);
  EXPECT_GE(bus.stats().at(0x100).sent + 1,
            static_cast<std::uint64_t>(fd_sent));
  EXPECT_GE(bus.stats().at(0x200).sent + 1,
            static_cast<std::uint64_t>(classic_sent));
}

// ----- CAN FD under the error machinery --------------------------------------

struct FdBusFixture {
  sim::EventQueue q;
  CanBus bus{q, 500'000, 2'000'000};  // 2 us nominal, 0.5 us data phase
  NodeId a = bus.attach_node("a");
  NodeId b = bus.attach_node("b");
};

CanFrame fd_frame(std::uint32_t id, unsigned dlc_code) {
  CanFrame f;
  f.id = id;
  f.fd = true;
  f.brs = true;
  f.dlc = dlc_code;
  f.data.fill(0x5A);
  return f;
}

TEST(CanFdFault, DataPhaseErrorIsPricedAtTheDataRateAndRetransmitted) {
  FdBusFixture f;
  // Corrupt bit 200 of the first attempt: for a 64-byte BRS frame that is
  // deep inside the data phase, so most of the carried prefix runs at the
  // 4x data rate.
  int remaining = 1;
  f.bus.set_bit_error_model([&](const CanFrame&, NodeId, SimTime) {
    if (remaining > 0) {
      --remaining;
      return 200;
    }
    return -1;
  });
  SimTime err_at = -1;
  f.bus.subscribe_err(f.a, [&](const CanBus::ErrorEvent& e, SimTime at) {
    if (e.kind == CanBus::ErrorEvent::Kind::tx_error) {
      err_at = at;
    }
  });
  int received = 0;
  SimTime delivered_at = 0;
  f.bus.subscribe(f.b, [&](const CanFrame& fr, SimTime at) {
    EXPECT_TRUE(fr.fd);
    ++received;
    delivered_at = at;
  });
  const CanFrame fr = fd_frame(0x100, 15);  // DLC 15 = 64 bytes
  f.bus.send(f.a, fr);
  f.q.run_until(10 * kMillisecond);

  EXPECT_EQ(received, 1);  // retransmitted, delivered exactly once
  EXPECT_EQ(f.bus.fault_stats().bit_errors, 1u);
  EXPECT_EQ(f.bus.fault_stats().retransmissions, 1u);
  EXPECT_EQ(f.bus.stats().at(0x100).errors, 1u);
  // TEC: +8 for the corrupted attempt, -1 for the clean retransmission.
  EXPECT_EQ(f.bus.tec(f.a), 7u);
  // The retransmission starts right after the error signaling completes.
  ASSERT_GE(err_at, 0);
  EXPECT_EQ(delivered_at, err_at + f.bus.frame_time(fr));
  // Dual-rate pricing: 201 prefix bits mostly at the data rate plus
  // 17 error-signaling bits at the nominal rate come to far less than 201
  // nominal bit times — a classic-rate model would put err_at past 402 us.
  EXPECT_LT(err_at, 201 * f.bus.bit_time());
  EXPECT_GT(err_at, 0);
}

TEST(CanFdFault, RepeatedFdErrorsWalkTecToPassiveThenBusOff) {
  FdBusFixture f;
  int corrupt_all = 1;  // stays > 0: every attempt corrupted
  f.bus.set_bit_error_model([&](const CanFrame&, NodeId, SimTime) {
    return corrupt_all > 0 ? 40 : -1;
  });
  std::vector<ErrorState> states;
  f.bus.subscribe_err(f.a, [&](const CanBus::ErrorEvent& e, SimTime) {
    if (e.kind == CanBus::ErrorEvent::Kind::state_change) {
      states.push_back(e.state);
      if (e.state == ErrorState::bus_off) {
        corrupt_all = 0;  // fault clears at bus-off entry
      }
    }
  });
  int received = 0;
  f.bus.subscribe(f.b, [&](const CanFrame&, SimTime) { ++received; });
  f.bus.send(f.a, fd_frame(0x100, 8));
  f.q.run_until(40 * kMillisecond);

  // 16 corrupted attempts reach TEC 128 (error-passive); 16 more cross
  // 255 (bus-off). Automatic recovery then re-admits the node and the
  // still-queued FD frame goes out clean.
  ASSERT_GE(states.size(), 2u);
  EXPECT_EQ(states[0], ErrorState::error_passive);
  EXPECT_EQ(states[1], ErrorState::bus_off);
  EXPECT_EQ(f.bus.fault_stats().bus_off_events, 1u);
  EXPECT_EQ(f.bus.fault_stats().recoveries, 1u);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(f.bus.error_state(f.a), ErrorState::error_active);
}

// ----- lonely transmitter: bounded retries, no livelock ----------------------

TEST(CanAck, LonelyTransmitterSuspendsAfterBoundedRetries) {
  BusFixture f;
  f.bus.set_ack_errors(true);
  f.bus.detach(f.b);  // nobody left to drive the ACK slot

  int received = 0;
  f.bus.subscribe(f.b, [&](const CanFrame&, SimTime) { ++received; });
  f.bus.send(f.a, frame(0x100, 4));
  // The regression this pins: with every peer gone, retransmission must
  // not livelock the event queue. run_until returning at all is half the
  // assertion; the exact retry budget is the other half.
  f.q.run_until(100 * kMillisecond);

  // 16 ACK errors at +8 TEC reach exactly error-passive (TEC 128); the
  // 17th attempt also fails but — per the fault-confinement exception —
  // does not bump TEC, and the transmitter suspends instead of retrying.
  EXPECT_EQ(f.bus.fault_stats().ack_errors, 17u);
  EXPECT_EQ(f.bus.tec(f.a), 128u);
  EXPECT_EQ(f.bus.error_state(f.a), ErrorState::error_passive);
  EXPECT_EQ(received, 0);
  const std::uint64_t errors_at_suspend = f.bus.fault_stats().ack_errors;

  // Still suspended much later: bounded work, not slow-motion livelock.
  f.q.run_until(sim::kSecond);
  EXPECT_EQ(f.bus.fault_stats().ack_errors, errors_at_suspend);

  // A peer reappearing wakes the transmitter; the pending frame delivers.
  f.bus.attach(f.b);
  f.q.run_until(2 * sim::kSecond);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(f.bus.stats().at(0x100).sent, 1u);
}

TEST(CanAck, AllPeersBusOffAlsoSuspendsAndRecoveryRedelivers) {
  BusFixture f;
  f.bus.set_ack_errors(true);
  f.bus.set_manual_bus_off_recovery(f.b, true);

  // Drive b to bus-off: corrupt every attempt by b only.
  f.bus.set_bit_error_model([&](const CanFrame&, NodeId tx, SimTime) {
    return tx == f.b ? 0 : -1;
  });
  f.bus.send(f.b, frame(0x050, 1));  // b retries itself into bus-off
  f.q.run_until(50 * kMillisecond);
  ASSERT_EQ(f.bus.error_state(f.b), ErrorState::bus_off);

  int received = 0;
  f.bus.subscribe(f.b, [&](const CanFrame&, SimTime) { ++received; });
  f.bus.send(f.a, frame(0x100, 4));
  f.q.run_until(sim::kSecond);
  // b is bus-off, so a has no ACK peer: same bounded suspend as detach.
  EXPECT_EQ(f.bus.error_state(f.a), ErrorState::error_passive);
  EXPECT_EQ(received, 0);

  // The fault clears and software requests recovery of b: an ACK peer is
  // re-admitted and a's pending frame (and b's own queued one) complete.
  f.bus.set_bit_error_model(nullptr);
  f.bus.request_recovery(f.b);
  f.q.run_until(2 * sim::kSecond);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(f.bus.stats().at(0x100).sent, 1u);
}

}  // namespace
}  // namespace aces::can
