// Sharded co-simulation scaling — the BENCH_shard.json CI artifact.
//
// Two workloads, each run at a sweep of worker-thread counts:
//
//   fleet   the fleet_network topology (kZones zone buses + spine, one
//           gateway per zone, hundreds of kernel-model ECUs): scheduler
//           throughput (events/s) vs threads;
//   iss     a gateway-bridged vehicle with ISS ECUs running compiled
//           WFI/ISR guests on every zone bus: simulated guest MIPS vs
//           threads.
//
// Determinism is asserted, not assumed: the exact delivery fingerprint
// (fleet) and guest retirement counts (iss) must be identical at every
// thread count — threads only decide who runs a shard, never what
// happens. Speedups are reported against the 1-thread run on the same
// machine; on a single-core host the sweep still runs (and still checks
// determinism), it just cannot show scaling.
//
//   bench_shard [--horizon-ms N] [--zones N] [--threads-max N] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace aces;
using sim::kMicrosecond;
using sim::kMillisecond;
using sim::SimTime;

namespace {

// ----- fleet workload (kernel-model, exact across shard counts) --------------

struct FleetConfig {
  int zones = 16;
  int ecus_per_zone = 8;
  SimTime horizon = 500 * kMillisecond;
};

net::NetworkBuilder fleet_topology(const FleetConfig& cfg) {
  net::NetworkBuilder nb;
  const net::BusId spine = nb.bus("spine", 1'000'000);
  net::ModelTask command;
  command.name = "command";
  command.priority = 5;
  command.exec = 100 * kMicrosecond;
  command.period = 20 * kMillisecond;
  command.deadline = 20 * kMillisecond;
  can::CanFrame cmd;
  cmd.id = 0x050;
  cmd.dlc = 8;
  command.tx = cmd;
  nb.ecu(spine, "fleet_controller", {command});

  net::GatewayConfig gc;
  gc.forwarding_latency = 200 * kMicrosecond;
  gc.queue_depth = 16;
  for (int z = 0; z < cfg.zones; ++z) {
    const net::BusId zone = nb.bus("zone" + std::to_string(z), 500'000);
    const net::GatewayId gw = nb.gateway("gw" + std::to_string(z), gc);
    const auto status_id = static_cast<std::uint32_t>(0x100 + z);
    nb.route(gw, {zone, spine, status_id, 0x7FF, {}});
    nb.route(gw, {spine, zone, 0x050, 0x7FF, {}});
    for (int e = 0; e < cfg.ecus_per_zone; ++e) {
      net::ModelTask task;
      task.name = "app";
      task.priority = 5;
      task.exec = 150 * kMicrosecond;
      task.period = 10 * kMillisecond;
      task.offset = static_cast<SimTime>(e) * 300 * kMicrosecond;
      task.deadline = 10 * kMillisecond;
      can::CanFrame f;
      f.id = e == 0 ? status_id
                    : static_cast<std::uint32_t>(0x200 + z * 0x10 + e);
      f.dlc = 8;
      task.tx = f;
      nb.ecu(zone, "z" + std::to_string(z) + "e" + std::to_string(e),
             {task});
    }
  }
  return nb;
}

// One timed run at one thread count. `work` is what the reported rate
// counts: simulation events (fleet) or guest instructions (iss);
// `identity` and `events` must be equal at every thread count.
struct Run {
  double wall_seconds = 0.0;
  std::uint64_t work = 0;
  std::uint64_t identity = 0;
  std::uint64_t events = 0;
  std::size_t shards = 0;
};

Run timed_run(net::Network& net, SimTime horizon) {
  Run r;
  const auto start = std::chrono::steady_clock::now();
  net.run_until(horizon);
  r.wall_seconds = bench::seconds_since(start);
  r.events = net.simulation().events_executed();
  r.shards = net.shard_count();
  return r;
}

Run run_fleet(const FleetConfig& cfg, unsigned threads) {
  net::NetworkBuilder nb = fleet_topology(cfg);
  nb.threads(threads);
  net::Network net = nb.build();
  // One fingerprint per bus (single writer: the bus's own shard worker),
  // summed after the run.
  std::vector<std::uint64_t> per_bus(net.bus_count(), 0);
  for (std::size_t b = 0; b < net.bus_count(); ++b) {
    const auto id = static_cast<net::BusId>(b);
    const can::NodeId probe = net.bus(id).attach_node("probe");
    net.bus(id).subscribe(probe, [fp = &per_bus[b]](const can::CanFrame& f,
                                                    SimTime at) {
      *fp += (static_cast<std::uint64_t>(f.id) + 1) *
             static_cast<std::uint64_t>(at);
    });
  }
  Run r = timed_run(net, cfg.horizon);
  for (const std::uint64_t fp : per_bus) {
    r.identity += fp;
  }
  r.work = r.events;
  return r;
}

// ----- ISS workload (guest MIPS) ---------------------------------------------

// The partition is fixed here (one shard per bus), so guest retirement
// counts must match exactly across thread counts.
Run run_iss(SimTime horizon, unsigned threads) {
  bench::GatewayVehicle v = bench::gateway_vehicle(bench::counting_guest());
  v.builder.threads(threads);
  net::Network net = v.builder.build();
  bench::start_broadcast(net, v.pt);
  Run r = timed_run(net, horizon);
  for (const net::EcuId id : v.ecus) {
    r.work += net.iss(id).binding().stats().steps;
  }
  r.identity = r.work;
  return r;
}

// ----- the sweep -------------------------------------------------------------

// How one workload's sweep is reported: rate = work * scale / wall time.
struct Report {
  const char* name;
  const char* work_key;
  const char* rate_key;
  const char* rate_unit;
  double scale;
  int decimals;
};

// Runs `run_at` at every thread count of `sweep`, checks that each run
// reproduces the 1-thread run, and prints and records one row per count.
template <class RunAt>
void sweep_threads(const std::vector<unsigned>& sweep, const Report& rep,
                   RunAt run_at, support::JsonWriter& json) {
  json.key(rep.name).begin_array(4);
  Run base;
  for (std::size_t k = 0; k < sweep.size(); ++k) {
    const Run r = run_at(sweep[k]);
    if (k == 0) {
      base = r;
    } else {
      ACES_CHECK_MSG(r.identity == base.identity && r.events == base.events,
                     std::string(rep.name) +
                         " run diverged across thread counts");
    }
    const double rate = r.wall_seconds > 0
                            ? static_cast<double>(r.work) * rep.scale /
                                  r.wall_seconds
                            : 0.0;
    const double speedup =
        r.wall_seconds > 0 ? base.wall_seconds / r.wall_seconds : 0.0;
    std::printf("  threads %2u: %7.3f s  %12.*f %s  speedup %5.2fx"
                "  (%zu shards)\n",
                sweep[k], r.wall_seconds, rep.decimals, rate, rep.rate_unit,
                speedup, r.shards);
    json.begin_object().field("threads", sweep[k]);
    json.field("wall_seconds", r.wall_seconds).field(rep.work_key, r.work);
    json.field(rep.rate_key, rate).field("speedup", speedup);
    json.field("shards", r.shards).end();
  }
  json.end();
}

}  // namespace

int main(int argc, char** argv) {
  FleetConfig cfg;
  const bench::Args args{argc, argv};
  const char* json_path = args.get("--json");
  cfg.horizon =
      args.num("--horizon-ms", cfg.horizon / kMillisecond) * kMillisecond;
  cfg.zones = static_cast<int>(args.num("--zones", cfg.zones));
  const unsigned hw = support::resolve_threads(0);
  const auto threads_max =
      static_cast<unsigned>(args.num("--threads-max", std::max(8u, hw)));
  std::vector<unsigned> sweep;
  for (unsigned t = 1; t <= threads_max; t *= 2) {
    sweep.push_back(t);
  }

  std::printf("=== sharded co-simulation scaling: %d zones x %d ECUs, "
              "horizon %lld ms, hw threads %u ===\n\n",
              cfg.zones, cfg.ecus_per_zone,
              static_cast<long long>(cfg.horizon / kMillisecond), hw);

  support::JsonWriter json;
  bench::begin_artifact(json, "shard");
  json.field("zones", cfg.zones);
  json.field("horizon_ms", cfg.horizon / kMillisecond);
  std::printf("fleet (kernel-model, %d buses):\n", cfg.zones + 1);
  sweep_threads(sweep,
                {"fleet", "events", "events_per_second", "events/s", 1.0, 0},
                [&cfg](unsigned t) { return run_fleet(cfg, t); }, json);
  std::printf("\niss (6 guest cores, 3 buses):\n");
  sweep_threads(sweep,
                {"iss", "guest_instructions", "guest_mips", "guest MIPS",
                 1e-6, 2},
                [](unsigned t) { return run_iss(200 * kMillisecond, t); },
                json);

  std::printf("\ndeterminism: every thread count produced identical "
              "results.\n");

  if (json_path != nullptr) {
    json.end();
    support::write_json_file(json_path, json);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
