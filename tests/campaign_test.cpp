// Campaign engine: expansion, determinism under concurrency, exact replay,
// bound soundness, and the stats-hygiene contract campaigns depend on.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "campaign/presets.h"
#include "campaign/runner.h"
#include "net/network.h"
#include "support/splitmix.h"

namespace aces {
namespace {

using sim::kMicrosecond;
using sim::kMillisecond;
using sim::SimTime;

// A trimmed vehicle campaign small enough for unit tests: the full preset
// topology, a reduced grid.
campaign::ScenarioSpec small_vehicle(SimTime horizon, std::uint32_t reps) {
  campaign::ScenarioSpec spec = campaign::presets::vehicle_spec(horizon);
  spec.axes = {
      {"error_period_ns", {0.0, 10.0e6}},
      {"gw_depth", {8.0, 1.0}},
      {"load_pct", {100.0, 130.0}},
  };
  spec.replicates = reps;
  return spec;
}

// ----- expansion -------------------------------------------------------------

TEST(CampaignSpec, ExpansionIsCartesianWithDerivedSeeds) {
  campaign::ScenarioSpec spec;
  spec.name = "grid";
  spec.master_seed = 7;
  spec.axes = {{"a", {1.0, 2.0, 3.0}}, {"b", {10.0, 20.0}}};
  spec.replicates = 2;
  ASSERT_EQ(spec.variant_count(), 12u);

  const auto variants = spec.expand();
  ASSERT_EQ(variants.size(), 12u);
  std::set<std::uint64_t> seeds;
  for (std::size_t k = 0; k < variants.size(); ++k) {
    const campaign::Variant& v = variants[k];
    EXPECT_EQ(v.index, k);
    EXPECT_EQ(v.seed, support::derive_stream(7, k));
    seeds.insert(v.seed);
    // First axis varies slowest, replicate fastest.
    const auto cell = k / 2;
    EXPECT_EQ(v.replicate, k % 2);
    EXPECT_DOUBLE_EQ(v.param("a"), spec.axes[0].values[cell / 2]);
    EXPECT_DOUBLE_EQ(v.param("b"), spec.axes[1].values[cell % 2]);
  }
  EXPECT_EQ(seeds.size(), 12u);  // collision-free by construction

  // variant(k) is exactly expand()[k]; bad indices and axes are spec bugs.
  const campaign::Variant v5 = spec.variant(5);
  EXPECT_EQ(v5.seed, variants[5].seed);
  EXPECT_EQ(v5.params, variants[5].params);
  EXPECT_THROW((void)spec.variant(12), std::logic_error);
  EXPECT_THROW((void)v5.param("nope"), std::logic_error);
}

// ----- determinism under concurrency ----------------------------------------

TEST(Campaign, WorkerCountDoesNotChangeTheReport) {
  // The satellite contract: the same 64-variant campaign run with one
  // worker and with several produces byte-identical deterministic reports
  // (results are keyed by variant index, never completion order).
  const campaign::ScenarioSpec spec = small_vehicle(50 * kMillisecond, 8);
  ASSERT_EQ(spec.variant_count(), 64u);

  campaign::CampaignRunner::Config one;
  one.workers = 1;
  campaign::CampaignRunner::Config four;
  four.workers = 4;
  const campaign::CampaignResult a =
      campaign::CampaignRunner(one).run(spec);
  const campaign::CampaignResult b =
      campaign::CampaignRunner(four).run(spec);

  ASSERT_EQ(a.variants.size(), b.variants.size());
  for (std::size_t k = 0; k < a.variants.size(); ++k) {
    EXPECT_EQ(a.variants[k].fingerprint, b.variants[k].fingerprint);
    EXPECT_EQ(a.variants[k].violations, b.variants[k].violations);
  }
  EXPECT_EQ(a.to_json(/*with_timing=*/false),
            b.to_json(/*with_timing=*/false));
  EXPECT_EQ(a.workers, 1u);
  EXPECT_EQ(b.workers, 4u);
}

TEST(Campaign, NonStdExceptionReachesTheCallerAtEveryWorkerCount) {
  // A topology that throws something other than a std::exception is not a
  // variant verdict; it must reach the caller of run() the same way
  // whether the variants ran inline or on worker threads.
  campaign::ScenarioSpec spec = small_vehicle(20 * kMillisecond, 1);
  const auto inner = spec.topology;
  spec.topology = [inner](const campaign::Variant& v) {
    if (v.index == 1) {
      throw 42;
    }
    return inner(v);
  };
  for (const unsigned workers : {1u, 4u}) {
    campaign::CampaignRunner::Config cfg;
    cfg.workers = workers;
    int thrown = 0;
    try {
      (void)campaign::CampaignRunner(cfg).run(spec);
    } catch (int e) {
      thrown = e;
    }
    EXPECT_EQ(thrown, 42) << workers << " workers";
  }
}

// ----- the report ------------------------------------------------------------

// FNV-1a over the report's bytes.
std::uint64_t report_hash(const std::string& report) {
  std::uint64_t h = 0xCBF2'9CE4'8422'2325ull;
  for (const char c : report) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x0000'0100'0000'01B3ull;
  }
  return h;
}

TEST(Campaign, DeterministicReportIsByteStable) {
  // The deterministic report's exact bytes (layout, number formats, key
  // order) for a fixed campaign, so that a serializer change that alters
  // them fails here rather than only in the end-to-end benchmark.
  const campaign::ScenarioSpec spec = small_vehicle(50 * kMillisecond, 2);
  const std::string report =
      campaign::CampaignRunner().run(spec).to_json(/*with_timing=*/false);
  EXPECT_EQ(report_hash(report), 0xd1e0'936e'b045'2f14ull) << report;
}

TEST(Campaign, ReportEscapesNames) {
  campaign::ScenarioSpec spec = small_vehicle(20 * kMillisecond, 1);
  spec.name = "say \"hi\" \\ done\x01";
  spec.paths[0].name = "path \"q\" \\ \x01";
  const std::string report =
      campaign::CampaignRunner().run(spec).to_json(/*with_timing=*/false);
  EXPECT_NE(report.find(R"("spec": "say \"hi\" \\ done\u0001")"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find(R"("name": "path \"q\" \\ \u0001")"),
            std::string::npos)
      << report;
  EXPECT_EQ(report.find('\x01'), std::string::npos);
}

// ----- replay ----------------------------------------------------------------

TEST(Campaign, ReplayReproducesAVariantBitIdentically) {
  const campaign::ScenarioSpec spec = small_vehicle(50 * kMillisecond, 2);
  campaign::CampaignRunner::Config cfg;
  cfg.workers = 2;
  const campaign::CampaignResult result =
      campaign::CampaignRunner(cfg).run(spec);

  // Replay a faulted variant (the interesting case: its RNG draws matter).
  const campaign::VariantResult* target = nullptr;
  for (const auto& v : result.variants) {
    if (v.bit_errors > 0) {
      target = &v;
      break;
    }
  }
  ASSERT_NE(target, nullptr) << "expected at least one faulted variant";

  const campaign::VariantResult replayed =
      campaign::CampaignRunner().replay(spec, target->index, target->seed);
  EXPECT_EQ(replayed.fingerprint, target->fingerprint);
  EXPECT_EQ(replayed.bit_errors, target->bit_errors);
  EXPECT_EQ(replayed.events, target->events);
  ASSERT_EQ(replayed.paths.size(), target->paths.size());
  for (std::size_t k = 0; k < replayed.paths.size(); ++k) {
    EXPECT_EQ(replayed.paths[k].frames, target->paths[k].frames);
    EXPECT_EQ(replayed.paths[k].min_latency, target->paths[k].min_latency);
    EXPECT_EQ(replayed.paths[k].max_latency, target->paths[k].max_latency);
    EXPECT_EQ(replayed.paths[k].total_latency,
              target->paths[k].total_latency);
  }

  // A seed from a different spec revision must fail loudly, not replay
  // the wrong experiment.
  EXPECT_THROW((void)campaign::CampaignRunner().replay(
                   spec, target->index, target->seed + 1),
               std::logic_error);
}

// ----- soundness -------------------------------------------------------------

TEST(Campaign, FaultFreeVariantsStayWithinPathRtaBounds) {
  campaign::ScenarioSpec spec =
      campaign::presets::vehicle_spec(100 * kMillisecond);
  spec.axes = {
      {"error_period_ns", {0.0}},
      {"gw_depth", {8.0, 1.0}},
      {"load_pct", {100.0, 160.0}},
  };
  spec.replicates = 2;
  const campaign::CampaignResult result =
      campaign::CampaignRunner().run(spec);

  EXPECT_EQ(result.bit_errors, 0u);
  for (const auto& v : result.variants) {
    EXPECT_TRUE(v.violations.empty())
        << "variant " << v.index << ": " << v.violations.front();
    for (const auto& p : v.paths) {
      EXPECT_TRUE(p.bound_schedulable);
      EXPECT_FALSE(p.bound_exceeded);
      EXPECT_GT(p.frames, 0u);
      EXPECT_LE(p.max_latency, p.bound);
    }
  }
}

TEST(Campaign, PresetPathBoundsArePinned) {
  // The report hash covers the path_rta bounds only through violation
  // strings; this pins every variant's operative bound and verdict over
  // the preset's default grid (four T_error values, two gateway depths,
  // three load scales, classic and FD backbone), so a change to the
  // analysis that moves one bound by one nanosecond fails in tier-1.
  const campaign::ScenarioSpec spec =
      campaign::presets::vehicle_spec(20 * kMillisecond);
  campaign::CampaignRunner::Config cfg;
  cfg.workers = 1;
  const campaign::CampaignResult result =
      campaign::CampaignRunner(cfg).run(spec);
  ASSERT_EQ(result.variants.size(), 48u);
  std::string bounds;
  for (const auto& v : result.variants) {
    ASSERT_EQ(v.paths.size(), 4u);
    for (const auto& p : v.paths) {
      EXPECT_GT(p.bound, 0);
      bounds += std::to_string(p.bound) + (p.bound_schedulable ? "+" : "-");
    }
  }
  EXPECT_EQ(report_hash(bounds), 0x9dd1'8491'0e6f'7c4dull) << bounds;
}

TEST(Campaign, SeededFaultCampaignsInjectAndAreCounted) {
  campaign::ScenarioSpec spec = small_vehicle(50 * kMillisecond, 2);
  const campaign::CampaignResult result =
      campaign::CampaignRunner().run(spec);
  std::uint64_t faulted_bit_errors = 0;
  for (const auto& v : result.variants) {
    double period = -1.0;
    for (const auto& [name, value] : v.params) {
      if (name == "error_period_ns") {
        period = value;
      }
    }
    if (period == 0.0) {
      EXPECT_EQ(v.bit_errors, 0u);
    } else {
      faulted_bit_errors += v.bit_errors;
    }
  }
  EXPECT_GT(faulted_bit_errors, 0u);
  EXPECT_EQ(result.bit_errors, faulted_bit_errors);
}

// ----- node-fault axis, supervision, availability ----------------------------

// One model producer on one bus, publishing 0x120 every 10 ms, with a
// heartbeat-monitoring supervisor that restarts it on a miss. The
// "fault_at_ns" axis sweeps from fault-free (0 disables the plan) to a
// crash mid-run.
campaign::ScenarioSpec fault_drill_spec() {
  campaign::ScenarioSpec spec;
  spec.name = "fault-drill";
  spec.master_seed = 11;
  spec.horizon = 500 * kMillisecond;
  spec.axes = {{"fault_at_ns", {0.0, 100.0e6}}};
  spec.topology = [](const campaign::Variant&) {
    net::NetworkBuilder nb;
    const net::BusId bus = nb.bus("body", 250'000);
    net::ModelTask sender;
    sender.name = "sender";
    sender.priority = 5;
    sender.exec = 200 * kMicrosecond;
    sender.period = 10 * kMillisecond;
    can::CanFrame tx;
    tx.id = 0x120;
    tx.dlc = 4;
    sender.tx = tx;
    nb.ecu(bus, "producer", {sender});
    return nb;
  };
  campaign::NodeFaultPlan nf;
  nf.ecu = 0;
  nf.kind = net::NodeFault::Kind::crash;
  nf.at_axis = "fault_at_ns";
  spec.node_faults.push_back(nf);
  campaign::PathSpec path;
  path.name = "producer_frames";
  path.dst_bus = 0;
  path.dst_id = 0x120;
  path.expected_period = 10 * kMillisecond;
  spec.paths.push_back(path);
  spec.assertions.min_availability = 0.5;
  spec.configure = [](net::Network& net, const campaign::Variant&) {
    can::CanFrame hb;
    hb.id = 0x050;
    hb.dlc = 1;
    net.ecu(0).start_heartbeat(hb, 20 * kMillisecond);
    net::SupervisorNode& sup = net.add_supervisor(0, "sup");
    net::SupervisorNode::Monitor mon;
    mon.name = "producer";
    mon.heartbeat_id = 0x050;
    mon.period = 20 * kMillisecond;
    mon.window = 2 * kMillisecond;
    mon.ecu = &net.ecu(0);
    mon.mitigations.push_back(
        net::Mitigation::restart_ecu(net.ecu(0), 10 * kMillisecond));
    sup.add_monitor(mon);
    sup.start();
  };
  return spec;
}

TEST(Campaign, NodeFaultAxisMeasuresAvailabilityAndRecovery) {
  const campaign::ScenarioSpec spec = fault_drill_spec();
  campaign::CampaignRunner::Config cfg;
  cfg.workers = 1;
  const campaign::CampaignResult result =
      campaign::CampaignRunner(cfg).run(spec);
  ASSERT_EQ(result.variants.size(), 2u);

  // Variant 0: fault_at 0 disables the plan — clean run, full
  // availability, no supervision activity.
  const campaign::VariantResult& clean = result.variants[0];
  EXPECT_EQ(clean.heartbeat_misses, 0u);
  EXPECT_EQ(clean.recoveries, 0u);
  EXPECT_TRUE(clean.recovery_times.empty());
  ASSERT_GE(clean.paths[0].availability, 0.0);
  EXPECT_GT(clean.paths[0].availability, 0.95);
  EXPECT_TRUE(clean.violations.empty());

  // Variant 1: crash at 100 ms, detected and mitigated — a short outage,
  // one recovery, availability degraded but above the floor.
  const campaign::VariantResult& faulted = result.variants[1];
  EXPECT_EQ(faulted.heartbeat_misses, 1u);
  EXPECT_EQ(faulted.mitigations, 1u);
  EXPECT_EQ(faulted.recoveries, 1u);
  ASSERT_EQ(faulted.recovery_times.size(), 1u);
  EXPECT_GT(faulted.recovery_times[0], 0);
  EXPECT_LT(faulted.paths[0].availability, clean.paths[0].availability);
  EXPECT_GT(faulted.paths[0].availability, 0.5);
  EXPECT_FALSE(faulted.watchdog_tripped);
  EXPECT_TRUE(faulted.violations.empty());

  // Campaign roll-up + report sections.
  EXPECT_EQ(result.recoveries, 1u);
  EXPECT_EQ(result.heartbeat_misses, 1u);
  EXPECT_GT(result.recovery_p99, 0);
  EXPECT_GE(result.recovery_max, result.recovery_p99 ? 1 : 0);
  EXPECT_GE(result.paths[0].availability, 0.9);
  EXPECT_EQ(result.paths[0].min_availability,
            faulted.paths[0].availability);
  const std::string json = result.to_json(/*with_timing=*/false);
  EXPECT_NE(json.find("\"supervision\""), std::string::npos);
  EXPECT_NE(json.find("\"availability\""), std::string::npos);
  EXPECT_NE(json.find("\"watchdog_timeouts\": 0"), std::string::npos);
}

TEST(Campaign, NodeFaultVariantReplaysBitIdentically) {
  const campaign::ScenarioSpec spec = fault_drill_spec();
  campaign::CampaignRunner::Config cfg;
  cfg.workers = 2;
  const campaign::CampaignRunner runner(cfg);
  const campaign::CampaignResult result = runner.run(spec);
  const campaign::VariantResult& faulted = result.variants[1];
  ASSERT_EQ(faulted.recoveries, 1u);

  const campaign::VariantResult again =
      runner.replay(spec, faulted.index, faulted.seed);
  EXPECT_EQ(again.fingerprint, faulted.fingerprint);
  EXPECT_EQ(again.recovery_times, faulted.recovery_times);
  EXPECT_EQ(again.paths[0].availability, faulted.paths[0].availability);

  // And the worker count never changes the deterministic report.
  campaign::CampaignRunner::Config one;
  one.workers = 1;
  const campaign::CampaignResult serial =
      campaign::CampaignRunner(one).run(spec);
  EXPECT_EQ(serial.to_json(/*with_timing=*/false),
            result.to_json(/*with_timing=*/false));
}

TEST(Campaign, WatchdogStopsAHungVariantLoudly) {
  campaign::ScenarioSpec spec = fault_drill_spec();
  spec.axes = {{"fault_at_ns", {0.0}}};
  // Wedge the variant: a same-instant livelock armed mid-run.
  const auto base_configure = spec.configure;
  // The chain's queued copies capture a raw pointer to the function (a
  // self-owning shared_ptr would be a leak cycle), so the spec keeps the
  // per-variant function objects alive for the campaign's lifetime.
  auto spins = std::make_shared<
      std::vector<std::shared_ptr<std::function<void()>>>>();
  spec.configure = [base_configure, spins](net::Network& net,
                                           const campaign::Variant& v) {
    base_configure(net, v);
    sim::Simulation& sim = net.shard(0);
    auto spin = std::make_shared<std::function<void()>>();
    *spin = [&sim, raw = spin.get()] { sim.schedule_in(0, *raw); };
    sim.schedule_at(10 * kMillisecond, [spin] { (*spin)(); });
    spins->push_back(spin);
  };
  campaign::CampaignRunner::Config cfg;
  cfg.workers = 1;
  cfg.watchdog_events = 50'000;
  const campaign::CampaignResult result =
      campaign::CampaignRunner(cfg).run(spec);

  ASSERT_EQ(result.variants.size(), 1u);
  const campaign::VariantResult& hung = result.variants[0];
  EXPECT_TRUE(hung.watchdog_tripped);
  ASSERT_FALSE(hung.violations.empty());
  EXPECT_NE(hung.violations.back().find("watchdog"), std::string::npos);
  EXPECT_EQ(result.watchdog_timeouts, 1u);
  EXPECT_NE(result.to_json(false).find("\"watchdog_timeouts\": 1"),
            std::string::npos);

  // The event-count watchdog is deterministic: the stopped variant
  // replays to the same fingerprint.
  const campaign::VariantResult again =
      campaign::CampaignRunner(cfg).replay(spec, hung.index, hung.seed);
  EXPECT_EQ(again.fingerprint, hung.fingerprint);
  EXPECT_TRUE(again.watchdog_tripped);
}

// ----- histogram -------------------------------------------------------------

TEST(CampaignHistogram, BinsPercentilesAndMergeGeometry) {
  campaign::LatencyHistogram h;
  h.bin_width = 100;
  h.bins.assign(5, 0);  // 4 regular bins + overflow
  for (int k = 0; k < 99; ++k) {
    h.add(50);  // bin 0
  }
  h.add(10'000);  // overflow bucket
  EXPECT_EQ(h.bins[0], 99u);
  EXPECT_EQ(h.bins[4], 1u);
  EXPECT_EQ(h.percentile(0.5), 100);   // upper edge of bin 0
  EXPECT_EQ(h.percentile(0.99), 100);
  EXPECT_EQ(h.percentile(1.0), 400);   // ceiling: overflow reports max edge

  campaign::LatencyHistogram other;
  other.bin_width = 100;
  other.bins.assign(5, 0);
  other.add(150);
  h.merge(other);
  EXPECT_EQ(h.bins[1], 1u);

  campaign::LatencyHistogram wrong;
  wrong.bin_width = 7;
  wrong.bins.assign(5, 0);
  EXPECT_THROW(h.merge(wrong), std::logic_error);
}

// ----- stats hygiene ---------------------------------------------------------

// A compact two-bus gateway topology whose periods all divide the window,
// so consecutive measurement windows carry identical traffic.
net::NetworkBuilder hygiene_topology() {
  net::NetworkBuilder nb;
  const net::BusId a = nb.bus("a", 500'000);
  const net::BusId b = nb.bus("b", 250'000);
  net::ModelTask fast;
  fast.name = "fast";
  fast.priority = 5;
  fast.exec = 200 * kMicrosecond;
  fast.period = 5 * kMillisecond;
  can::CanFrame ff;
  ff.id = 0x100;
  ff.dlc = 8;
  fast.tx = ff;
  nb.ecu(a, "tx_fast", {fast});
  net::ModelTask slow;
  slow.name = "slow";
  slow.priority = 5;
  slow.exec = 200 * kMicrosecond;
  slow.period = 10 * kMillisecond;
  can::CanFrame sf;
  sf.id = 0x200;
  sf.dlc = 4;
  slow.tx = sf;
  nb.ecu(b, "tx_slow", {slow});
  net::GatewayConfig gc;
  gc.forwarding_latency = 100 * kMicrosecond;
  gc.queue_depth = 4;
  const net::GatewayId gw = nb.gateway("gw", gc);
  nb.route(gw, {a, b, 0x100, 0x7FF, std::uint32_t{0x300}});
  return nb;
}

struct WindowSnapshot {
  std::uint64_t sent_a = 0, sent_b = 0;
  SimTime worst_a = 0, worst_b = 0;
  std::uint64_t forwarded = 0, delivered = 0, dropped = 0;
  std::uint64_t events = 0;

  [[nodiscard]] static WindowSnapshot capture(net::Network& net) {
    WindowSnapshot s;
    for (const auto& [id, ms] : net.bus(0).stats()) {
      s.sent_a += ms.sent;
      s.worst_a = std::max(s.worst_a, ms.worst_latency);
    }
    for (const auto& [id, ms] : net.bus(1).stats()) {
      s.sent_b += ms.sent;
      s.worst_b = std::max(s.worst_b, ms.worst_latency);
    }
    s.forwarded = net.gateway(0).stats().frames_forwarded;
    s.delivered = net.gateway(0).stats().frames_delivered;
    s.dropped = net.gateway(0).stats().frames_dropped;
    s.events = net.simulation().stats().events_executed;
    return s;
  }

  bool operator==(const WindowSnapshot&) const = default;
};

void reset_all(net::Network& net) {
  for (std::size_t b = 0; b < net.bus_count(); ++b) {
    net.bus(static_cast<net::BusId>(b)).reset_stats();
  }
  for (std::size_t g = 0; g < net.gateway_count(); ++g) {
    net.gateway(static_cast<net::GatewayId>(g)).reset_stats();
  }
  net.simulation().reset_stats();
}

TEST(StatsHygiene, SequentialWindowsMatchFreshRuns) {
  constexpr SimTime kWindow = 100 * kMillisecond;

  // Reused network: warm up one window, then measure two more.
  net::Network reused = hygiene_topology().build();
  reused.run_until(kWindow);
  reset_all(reused);
  reused.run_until(2 * kWindow);
  const auto second = WindowSnapshot::capture(reused);
  reset_all(reused);
  reused.run_until(3 * kWindow);
  const auto third = WindowSnapshot::capture(reused);

  // Fresh network driven identically: its second window must match the
  // reused network's windows exactly — reset_stats leaves no residue and
  // misses nothing.
  net::Network fresh = hygiene_topology().build();
  fresh.run_until(kWindow);
  reset_all(fresh);
  fresh.run_until(2 * kWindow);
  const auto fresh_second = WindowSnapshot::capture(fresh);

  EXPECT_GT(second.sent_a, 0u);
  EXPECT_GT(second.forwarded, 0u);
  EXPECT_TRUE(second == third);
  EXPECT_TRUE(second == fresh_second);
}

TEST(StatsHygiene, ResetClearsFaultCountersAndPreservesLiveState) {
  net::Network net = hygiene_topology().build();
  // Corrupt every first transmission attempt of 0x100 on bus a.
  can::CanBus& bus = net.bus(0);
  bus.set_bit_error_model(
      [](const can::CanFrame& f, can::NodeId, SimTime) {
        static thread_local std::uint64_t n = 0;
        if (f.id == 0x100 && (n++ % 2) == 0) {
          return 20;
        }
        return -1;
      });
  net.run_until(50 * kMillisecond);
  EXPECT_GT(bus.fault_stats().bit_errors, 0u);

  bus.set_bit_error_model(nullptr);
  reset_all(net);
  EXPECT_EQ(bus.fault_stats().bit_errors, 0u);
  EXPECT_EQ(bus.fault_stats().retransmissions, 0u);
  EXPECT_EQ(bus.stats().size(), 0u);
  EXPECT_EQ(net.gateway(0).stats().frames_forwarded, 0u);
  EXPECT_EQ(net.simulation().stats().events_executed, 0u);

  // The network keeps running cleanly after the reset.
  net.run_until(100 * kMillisecond);
  EXPECT_EQ(bus.fault_stats().bit_errors, 0u);
  EXPECT_GT(net.gateway(0).stats().frames_delivered, 0u);
}

}  // namespace
}  // namespace aces
