// E9 — the distributed-vision substrate: CAN schedulability.
//
// An SAE-flavored body/powertrain message set is swept across bus loads;
// for every message the worst simulated latency is compared against the
// Davis-et-al. response-time bound. The property that makes the "virtual
// multi-core" vision engineerable: analysis >= simulation, tight at the
// top priorities.
//
// `--json PATH` additionally writes a machine-readable artifact (the CI
// `BENCH_can.json`) carrying, per sweep and message, the simulated worst
// latency plus BOTH analytic bounds: fault-free and faulted (Tindell's
// error term at one bit error per 10 ms). The human-readable stdout is
// unchanged by the flag.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "can/bus.h"
#include "sched/can_rta.h"

using namespace aces;
using namespace aces::bench;
using sim::SimTime;
using sim::kMillisecond;

namespace {

std::vector<sched::CanMessage> base_set() {
  std::vector<sched::CanMessage> m;
  const auto add = [&m](const char* name, std::uint32_t id, unsigned dlc,
                        SimTime period) {
    m.push_back(sched::CanMessage{name, id, dlc, period, 0, 0});
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

// Pads the set with extra mid-priority traffic to reach a target load.
std::vector<sched::CanMessage> padded_set(int extra) {
  auto msgs = base_set();
  for (int k = 0; k < extra; ++k) {
    sched::CanMessage m;
    m.name = "pad" + std::to_string(k);
    m.id = static_cast<std::uint32_t>(0x300 + k * 8);
    m.dlc = 8;
    m.period = 10 * kMillisecond;
    msgs.push_back(m);
  }
  return msgs;
}

// Fault hypothesis used for the artifact's faulted bounds.
constexpr SimTime kTError = 10 * kMillisecond;

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = Args{argc, argv}.get("--json");

  support::JsonWriter json;
  begin_artifact(json, "bench_can_rta");
  json.field("bitrate_bps", 250'000).field("t_error_ns", kTError);
  json.key("sweeps").begin_array(4);

  std::printf("=== E9: CAN worst-case latency — simulation vs response-time "
              "analysis (250 kbit/s) ===\n");
  for (const int extra : {0, 4, 8}) {
    const auto msgs = padded_set(extra);
    const sched::CanRtaResult bound = sched::can_rta(msgs, 250'000);
    const sched::CanRtaResult faulted =
        sched::can_rta(msgs, 250'000, sched::CanErrorModel{kTError});

    sim::EventQueue q;
    can::CanBus bus(q, 250'000);
    const can::NodeId tx = bus.attach_node("tx");
    (void)bus.attach_node("rx");
    for (const sched::CanMessage& m : msgs) {
      q.schedule_every(m.period, [&bus, m, tx]() {
        can::CanFrame f;
        f.id = m.id;
        f.dlc = m.dlc;
        bus.send(tx, f);
      });
    }
    q.run_until(4 * sim::kSecond);

    std::printf("\n-- bus utilization %.0f%% (analysis: %s) --\n",
                100.0 * bound.bus_utilization,
                bound.schedulable ? "schedulable" : "NOT schedulable");
    std::printf("%-16s %6s %10s %12s %12s %8s\n", "message", "id", "period",
                "sim worst", "RTA bound", "margin");
    print_rule();
    json.begin_object().field("extra_load", extra);
    json.field("utilization", bound.bus_utilization);
    json.field("schedulable", bound.schedulable);
    json.field("schedulable_faulted", faulted.schedulable).line(5);
    json.key("messages").begin_array(7);
    for (std::size_t k = 0; k < msgs.size(); ++k) {
      const auto it = bus.stats().find(msgs[k].id);
      const SimTime sim_worst =
          it == bus.stats().end() ? 0 : it->second.worst_latency;
      json.begin_object().field("name", msgs[k].name);
      json.field("id", msgs[k].id).field("period_ns", msgs[k].period);
      json.field("sim_worst_ns", sim_worst);
      json.field("bound_fault_free_ns", faulted.response_fault_free[k]);
      json.field("bound_faulted_ns", faulted.response_faulted[k]).end();
      if (msgs[k].name.rfind("pad", 0) == 0 && k % 3 != 0) {
        continue;  // keep the table readable
      }
      std::printf("%-16s %#6x %8lldms %10lldus %10lldus %7.0f%%\n",
                  msgs[k].name.c_str(), msgs[k].id,
                  static_cast<long long>(msgs[k].period / kMillisecond),
                  static_cast<long long>(sim_worst / 1000),
                  static_cast<long long>(bound.response[k] / 1000),
                  bound.response[k] == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(sim_worst) /
                            static_cast<double>(bound.response[k]));
      ACES_CHECK_MSG(sim_worst <= bound.response[k],
                     "analysis violated by simulation!");
      ACES_CHECK_MSG(bound.response[k] <= faulted.response[k],
                     "error term shrank a bound!");
    }
    json.end().end();
  }
  json.end().end();
  std::printf("\nProperty held: every simulated latency <= its analytic "
              "bound.\n");

  if (json_path != nullptr) {
    support::write_json_file(json_path, json);
  }
  return 0;
}
