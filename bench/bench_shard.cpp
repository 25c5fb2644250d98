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
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cpu/profiles.h"
#include "isa/assembler.h"
#include "net/network.h"
#include "support/check.h"

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

struct FleetRun {
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
  std::size_t shards = 0;
};

FleetRun run_fleet(const FleetConfig& cfg, unsigned threads) {
  net::NetworkBuilder nb = fleet_topology(cfg);
  nb.threads(threads);
  net::Network net = nb.build();
  FleetRun r;
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
  const auto start = std::chrono::steady_clock::now();
  net.run_until(cfg.horizon);
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  for (const std::uint64_t fp : per_bus) {
    r.fingerprint += fp;
  }
  r.events = net.simulation().events_executed();
  r.shards = net.shard_count();
  return r;
}

// ----- ISS workload (guest MIPS) ---------------------------------------------

struct IssRun {
  double wall_seconds = 0.0;
  std::uint64_t instructions = 0;
  std::uint64_t events = 0;
  std::size_t shards = 0;
};

IssRun run_iss(SimTime horizon, unsigned threads) {
  using namespace aces::isa;
  using Ctl = can::CanController;
  constexpr unsigned kLine = 1;
  constexpr std::uint32_t kVectors = cpu::kSramBase + 0x40;
  constexpr std::uint32_t kCount = cpu::kSramBase + 0x100;

  // Count-and-ack guest ISR over a WFI idle loop, shared by all ECUs.
  Assembler a(Encoding::b32, cpu::kFlashBase);
  const Label entry = a.bound_label();
  const Label top = a.bound_label();
  Instruction wfi;
  wfi.op = Op::wfi;
  a.ins(wfi);
  a.b(top);
  a.pool();
  const Label isr = a.bound_label();
  a.load_literal(r0, cpu::kPeriphBase);
  a.load_literal(r3, kCount);
  a.ins(ins_ldst_imm(Op::ldr, r2, r3, 0));
  a.ins(ins_rri(Op::add, r2, r2, 1, SetFlags::any));
  a.ins(ins_ldst_imm(Op::str, r2, r3, 0));
  a.ins(ins_mov_imm(r12, 1, SetFlags::any));
  a.ins(ins_ldst_imm(Op::str, r12, r0, Ctl::kRxPop));
  a.ins(ins_ldst_imm(Op::str, r12, r0, Ctl::kIrqAck));
  a.ins(ins_ret());
  a.pool();
  net::GuestProgram prog;
  prog.image = a.assemble();
  prog.entry = a.label_address(entry);
  prog.ivc.vector_table = kVectors;
  prog.handlers.push_back({kLine, a.label_address(isr), 32});

  net::NetworkBuilder nb;
  const net::BusId buses[3] = {nb.bus("pt", 500'000),
                               nb.bus("body", 125'000),
                               nb.bus("diag", 250'000)};
  Ctl::Config cc;
  cc.rx_line = kLine;
  std::vector<net::EcuId> ecus;
  for (int k = 0; k < 6; ++k) {
    ecus.push_back(nb.ecu(
        buses[k / 2],
        cpu::profiles::modern_mcu()
            .name("ecu" + std::to_string(k))
            .clock_hz(8'000'000 * (1u << (k % 2)))
            .flash_size(16 * 1024),
        prog, cc));
  }
  net::GatewayConfig gc;
  gc.forwarding_latency = 100 * kMicrosecond;
  const net::GatewayId gw = nb.gateway("central", gc);
  nb.route(gw, {buses[0], buses[1], 0x100, 0x7FF, {}});
  nb.route(gw, {buses[0], buses[2], 0x100, 0x7FF, {}});
  nb.threads(threads);
  net::Network net = nb.build();

  const can::NodeId sensor = net.bus(buses[0]).attach_node("sensor");
  net.shard(buses[0]).schedule_every(sim::kMillisecond,
                                     [&net, &buses, sensor] {
                                       can::CanFrame f;
                                       f.id = 0x100;
                                       f.dlc = 4;
                                       net.bus(buses[0]).send(sensor, f);
                                     });
  const auto start = std::chrono::steady_clock::now();
  net.run_until(horizon);
  IssRun r;
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  for (const net::EcuId id : ecus) {
    r.instructions += net.iss(id).binding().stats().steps;
  }
  r.events = net.simulation().events_executed();
  r.shards = net.shard_count();
  return r;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  FleetConfig cfg;
  SimTime iss_horizon = 200 * kMillisecond;
  const char* json_path = nullptr;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  unsigned threads_max = std::max(8u, hw);
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--json") == 0 && k + 1 < argc) {
      json_path = argv[++k];
    } else if (std::strcmp(argv[k], "--horizon-ms") == 0 && k + 1 < argc) {
      cfg.horizon = std::atoll(argv[++k]) * kMillisecond;
    } else if (std::strcmp(argv[k], "--zones") == 0 && k + 1 < argc) {
      cfg.zones = std::atoi(argv[++k]);
    } else if (std::strcmp(argv[k], "--threads-max") == 0 && k + 1 < argc) {
      threads_max = static_cast<unsigned>(std::atoi(argv[++k]));
    }
  }
  std::vector<unsigned> sweep;
  for (unsigned t = 1; t <= threads_max; t *= 2) {
    sweep.push_back(t);
  }

  std::printf("=== sharded co-simulation scaling: %d zones x %d ECUs, "
              "horizon %lld ms, hw threads %u ===\n\n",
              cfg.zones, cfg.ecus_per_zone,
              static_cast<long long>(cfg.horizon / kMillisecond), hw);

  std::string fleet_json = "[";
  std::printf("fleet (kernel-model, %d buses):\n", cfg.zones + 1);
  FleetRun fleet_base;
  for (std::size_t k = 0; k < sweep.size(); ++k) {
    const FleetRun r = run_fleet(cfg, sweep[k]);
    if (k == 0) {
      fleet_base = r;
    } else {
      ACES_CHECK_MSG(r.fingerprint == fleet_base.fingerprint &&
                         r.events == fleet_base.events,
                     "fleet run diverged across thread counts");
    }
    const double evps =
        r.wall_seconds > 0 ? static_cast<double>(r.events) / r.wall_seconds
                           : 0.0;
    const double speedup =
        r.wall_seconds > 0 ? fleet_base.wall_seconds / r.wall_seconds : 0.0;
    std::printf("  threads %2u: %7.3f s  %12.0f events/s  speedup %5.2fx"
                "  (%zu shards)\n",
                sweep[k], r.wall_seconds, evps, speedup, r.shards);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"threads\": %u, \"wall_seconds\": %.4f, "
                  "\"events\": %s, \"events_per_second\": %.0f, "
                  "\"speedup\": %.3f, \"shards\": %zu}",
                  k == 0 ? "" : ",", sweep[k], r.wall_seconds,
                  fmt_u64(r.events).c_str(), evps, speedup, r.shards);
    fleet_json += buf;
  }
  fleet_json += "\n  ]";

  std::string iss_json = "[";
  std::printf("\niss (6 guest cores, 3 buses):\n");
  IssRun iss_base;
  for (std::size_t k = 0; k < sweep.size(); ++k) {
    const IssRun r = run_iss(iss_horizon, sweep[k]);
    if (k == 0) {
      iss_base = r;
    } else {
      // ISS topologies pin exact identity across THREAD counts for a
      // fixed partition (the shard count is fixed here).
      ACES_CHECK_MSG(r.instructions == iss_base.instructions &&
                         r.events == iss_base.events,
                     "iss run diverged across thread counts");
    }
    const double mips = r.wall_seconds > 0
                            ? static_cast<double>(r.instructions) * 1e-6 /
                                  r.wall_seconds
                            : 0.0;
    const double speedup =
        r.wall_seconds > 0 ? iss_base.wall_seconds / r.wall_seconds : 0.0;
    std::printf("  threads %2u: %7.3f s  %8.2f guest MIPS  speedup %5.2fx"
                "  (%zu shards)\n",
                sweep[k], r.wall_seconds, mips, speedup, r.shards);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"threads\": %u, \"wall_seconds\": %.4f, "
                  "\"guest_instructions\": %s, \"guest_mips\": %.2f, "
                  "\"speedup\": %.3f, \"shards\": %zu}",
                  k == 0 ? "" : ",", sweep[k], r.wall_seconds,
                  fmt_u64(r.instructions).c_str(), mips, speedup, r.shards);
    iss_json += buf;
  }
  iss_json += "\n  ]";

  std::printf("\ndeterminism: every thread count produced identical "
              "results.\n");

  if (json_path != nullptr) {
    std::string j = "{\n  \"bench\": \"shard\",\n";
    j += "  \"hw_threads\": " + std::to_string(hw) + ",\n";
    j += "  \"zones\": " + std::to_string(cfg.zones) + ",\n";
    j += "  \"horizon_ms\": " +
         std::to_string(cfg.horizon / kMillisecond) + ",\n";
    j += "  \"fleet\": " + fleet_json + ",\n";
    j += "  \"iss\": " + iss_json + "\n}\n";
    std::FILE* f = std::fopen(json_path, "w");
    ACES_CHECK_MSG(f != nullptr, "cannot open json output path");
    std::fwrite(j.data(), 1, j.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
