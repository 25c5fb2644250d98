// E13 — fault injection and recovery at campaign scale.
//
// Sweeps node-crash instant x supervised reboot delay x bus bit-error
// period over a supervised single-bus producer (>= 1000 seeded variants by
// default) and aggregates what the dependability story is made of:
// heartbeat-miss detection latencies, fault -> recovery distributions, and
// per-path availability. Three properties are self-checked, not just
// reported:
//
//   determinism   the same subset campaign run at 1, 2 and N workers must
//                 produce a byte-identical deterministic report;
//   soundness     every clean variant (no crash, no bit errors) keeps full
//                 availability and zero supervision activity; every
//                 error-free crash variant is detected, mitigated and
//                 recovered with availability above the floor, and mean
//                 recovery grows with the configured reboot delay;
//   replay        the first faulted variant, re-run alone from its
//                 (spec, seed) pair, must reproduce its fingerprint.
//
// `--json PATH` writes the BENCH_faults.json CI artifact: the full
// campaign report (with timing) wrapped with the scaling sweep.
//
//   bench_faults [--variants N] [--horizon-ms M] [--json PATH]
#include <cstdio>

#include "bench_util.h"

using namespace aces;
using campaign::CampaignResult;
using campaign::CampaignRunner;
using campaign::ScenarioSpec;
using sim::kMicrosecond;
using sim::kMillisecond;

namespace {

constexpr std::uint32_t kSignalId = 0x110;
constexpr std::uint32_t kHeartbeatId = 0x050;

ScenarioSpec fault_sweep_spec(sim::SimTime horizon) {
  ScenarioSpec spec;
  spec.name = "fault-sweep";
  spec.master_seed = 1305;
  spec.horizon = horizon;
  spec.axes = {
      {"fault_at_ns", {0.0, 60.0e6, 120.0e6, 180.0e6, 240.0e6, 300.0e6}},
      {"reboot_delay_ns", {5.0e6, 20.0e6, 40.0e6}},
      {"error_period_ns", {0.0, 3.0e6}},
  };
  spec.topology = [](const campaign::Variant&) {
    net::NetworkBuilder nb;
    const net::BusId bus = nb.bus("pt", 500'000);
    net::ModelTask sender;
    sender.name = "speed";
    sender.priority = 5;
    sender.exec = 200 * kMicrosecond;
    sender.period = 10 * kMillisecond;
    can::CanFrame tx;
    tx.id = kSignalId;
    tx.dlc = 4;
    sender.tx = tx;
    nb.ecu(bus, "producer", {sender});
    return nb;
  };

  campaign::FaultPlan errors;
  errors.bus = 0;
  errors.period_axis = "error_period_ns";
  spec.faults.push_back(errors);

  campaign::NodeFaultPlan crash;
  crash.ecu = 0;
  crash.kind = net::NodeFault::Kind::crash;
  crash.at_axis = "fault_at_ns";
  spec.node_faults.push_back(crash);

  campaign::PathSpec path;
  path.name = "speed_signal";
  path.dst_bus = 0;
  path.dst_id = kSignalId;
  path.expected_period = 10 * kMillisecond;
  spec.paths.push_back(path);
  spec.assertions.min_availability = 0.3;

  spec.configure = [](net::Network& net, const campaign::Variant& v) {
    can::CanFrame hb;
    hb.id = kHeartbeatId;
    hb.dlc = 1;
    net.ecu(0).start_heartbeat(hb, 20 * kMillisecond);
    net::SupervisorNode& sup = net.add_supervisor(0, "sup");
    net::SupervisorNode::Monitor mon;
    mon.name = "producer";
    mon.heartbeat_id = kHeartbeatId;
    mon.period = 20 * kMillisecond;
    mon.window = 2 * kMillisecond;
    mon.delivery_bound = kMillisecond;
    mon.ecu = &net.ecu(0);
    mon.mitigations.push_back(net::Mitigation::restart_ecu(
        net.ecu(0), v.param_ns("reboot_delay_ns")));
    sup.add_monitor(mon);
    sup.start();
  };
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args{argc, argv};
  const char* json_path = args.get("--json");
  const auto want_variants =
      static_cast<std::size_t>(args.num("--variants", 1008));
  const sim::SimTime horizon = args.num("--horizon-ms", 400) * kMillisecond;

  ScenarioSpec spec = fault_sweep_spec(horizon);
  CampaignRunner::Config cfg;
  cfg.watchdog_events = 5'000'000;  // backstop; no variant should trip it
  support::JsonWriter json;
  bench::open_campaign_bench("bench_faults", "E13: fault campaign", spec,
                             want_variants, cfg, json);

  // --- the full campaign -------------------------------------------------
  const CampaignResult full = CampaignRunner(cfg).run(spec);
  std::printf("supervision: %llu misses, %llu mitigations, %llu recoveries; "
              "recovery p99 %.2f ms, max %.2f ms; watchdog %llu\n",
              static_cast<unsigned long long>(full.heartbeat_misses),
              static_cast<unsigned long long>(full.mitigations),
              static_cast<unsigned long long>(full.recoveries),
              static_cast<double>(full.recovery_p99) / 1e6,
              static_cast<double>(full.recovery_max) / 1e6,
              static_cast<unsigned long long>(full.watchdog_timeouts));
  for (const auto& p : full.paths) {
    std::printf("path %-12s %8llu frames, availability %.4f (worst variant "
                "%.4f)\n", p.name.c_str(),
                static_cast<unsigned long long>(p.frames), p.availability,
                p.min_availability);
  }
  ACES_CHECK_MSG(full.watchdog_timeouts == 0,
                 "a variant tripped the event watchdog");

  // Soundness: clean variants stay fully available; error-free crash
  // variants detect, mitigate, recover and stay above the availability
  // floor; recovery time tracks the configured reboot delay.
  std::uint64_t clean = 0;
  std::uint64_t crashed = 0;
  double recovery_sum_fast = 0.0, recovery_sum_slow = 0.0;
  std::uint64_t recovery_n_fast = 0, recovery_n_slow = 0;
  for (const auto& v : full.variants) {
    const double fault_at = bench::axis_of(v, "fault_at_ns");
    const double err = bench::axis_of(v, "error_period_ns");
    const double reboot = bench::axis_of(v, "reboot_delay_ns");
    if (fault_at == 0.0 && err == 0.0) {
      ++clean;
      ACES_CHECK_MSG(v.heartbeat_misses == 0 && v.recoveries == 0,
                     "clean variant saw supervision activity");
      ACES_CHECK_MSG(v.paths[0].availability > 0.95,
                     "clean variant lost availability");
    } else if (fault_at > 0.0 && err == 0.0) {
      ++crashed;
      ACES_CHECK_MSG(v.heartbeat_misses >= 1, "crash went undetected");
      ACES_CHECK_MSG(v.mitigations >= 1, "no mitigation fired");
      ACES_CHECK_MSG(!v.recovery_times.empty(), "no recovery measured");
      ACES_CHECK_MSG(v.paths[0].availability > 0.5,
                     "crash variant fell below the availability floor");
      for (const sim::SimTime t : v.recovery_times) {
        if (reboot <= 5.0e6) {
          recovery_sum_fast += static_cast<double>(t);
          ++recovery_n_fast;
        } else if (reboot >= 40.0e6) {
          recovery_sum_slow += static_cast<double>(t);
          ++recovery_n_slow;
        }
      }
    }
  }
  ACES_CHECK(clean > 0 && crashed > 0);
  ACES_CHECK(recovery_n_fast > 0 && recovery_n_slow > 0);
  const double mean_fast = recovery_sum_fast / recovery_n_fast;
  const double mean_slow = recovery_sum_slow / recovery_n_slow;
  std::printf("soundness: %llu clean + %llu crash variants checked; mean "
              "recovery %.2f ms (5 ms reboot) vs %.2f ms (40 ms reboot)\n",
              static_cast<unsigned long long>(clean),
              static_cast<unsigned long long>(crashed), mean_fast / 1e6,
              mean_slow / 1e6);
  ACES_CHECK_MSG(mean_slow > mean_fast,
                 "recovery time does not track the reboot delay");

  // Replay: the first crash variant must reproduce bit-identically.
  for (const auto& v : full.variants) {
    if (bench::axis_of(v, "fault_at_ns") == 0.0) {
      continue;
    }
    bench::check_replay(spec, v);
    break;
  }

  if (json_path != nullptr) {
    json.key("campaign");
    full.write_json(json, /*with_timing=*/true);
    json.end();
    support::write_json_file(json_path, json);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
