// Heterogeneous fabrics — one application payload, four wires.
//
// Moves the same 64-byte application payload once per millisecond over
// every fabric the simulator models and contrasts delivered throughput,
// wire utilization and worst queue-to-delivery latency:
//
//   classic 500k      8 classic CAN frames per burst (the only way to
//                     carry 64 bytes on CAN 2.0) — saturates: the burst
//                     needs more wire time than the period provides
//   fd 500k/2M        one CAN FD frame, DLC 15, BRS data phase at 2 Mbps
//   fd 500k/5M        the same frame with a 5 Mbps data phase
//   flexray 10M       one FlexRay dynamic-segment frame (minislot scheme)
//
// Latencies are measured on the simulated wire and, for the feasible
// transports, checked against the matching analytic worst case (CAN FD
// stuffed closed forms, FlexRay minislot bound) — the bench fails if a
// measurement ever exceeds its bound. `--json PATH` writes the
// BENCH_fabric.json CI artifact.
//
//   bench_fabric [--horizon-ms N] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "can/bus.h"
#include "can/frame.h"
#include "net/flexray_fabric.h"
#include "sim/event_queue.h"

using namespace aces;
using sim::kMicrosecond;
using sim::kMillisecond;
using sim::SimTime;

namespace {

constexpr unsigned kPayloadBytes = 64;
constexpr SimTime kBurstPeriod = kMillisecond;

struct TransportResult {
  std::string name;
  bool feasible = true;           // wire can sustain the offered load
  double utilization = 0.0;       // worst-case wire time / period
  std::uint64_t bursts = 0;       // payloads fully delivered
  SimTime worst_latency = 0;      // burst queue -> last byte delivered
  SimTime analytic_worst = 0;     // closed-form bound (feasible only)
  double wall_ms = 0.0;           // host time for the simulation
};

// 64 bytes as `nframes` classic frames or one FD frame on one bus.
TransportResult run_can(const char* name, std::uint32_t bitrate,
                        std::uint32_t data_bitrate, bool fd,
                        SimTime horizon) {
  TransportResult r;
  r.name = name;
  const auto t0 = std::chrono::steady_clock::now();

  sim::EventQueue queue;
  can::CanBus bus(queue, bitrate, data_bitrate);
  const can::NodeId tx = bus.attach_node("source");
  const can::NodeId rx = bus.attach_node("sink");

  const unsigned nframes = fd ? 1 : kPayloadBytes / 8;
  std::uint64_t delivered_in_burst = 0;
  bus.subscribe(rx, [&](const can::CanFrame& f, SimTime at) {
    if (++delivered_in_burst % nframes == 0) {
      r.bursts += 1;
      const SimTime lat = at - f.timestamp;
      r.worst_latency = std::max(r.worst_latency, lat);
    }
  });
  queue.schedule_every(kBurstPeriod, [&] {
    for (unsigned k = 0; k < nframes; ++k) {
      can::CanFrame f;
      f.id = 0x100 + k;
      f.fd = fd;
      f.dlc = fd ? 15 : 8;  // DLC 15 = 64 bytes
      bus.send(tx, f);
    }
  });
  queue.run_until(horizon);

  // Worst-case wire time of one whole burst, from the stuffed closed
  // forms (what a schedulability analysis would charge).
  const SimTime bit = sim::kSecond / bitrate;
  if (fd) {
    const SimTime dbit = sim::kSecond / data_bitrate;
    r.analytic_worst = can::fd_worst_case_nominal_bits(false) * bit +
                       can::fd_worst_case_data_bits(15) * dbit;
  } else {
    r.analytic_worst =
        static_cast<SimTime>(nframes) *
        (can::worst_case_wire_bits(8, false) * bit);
  }
  r.utilization = static_cast<double>(r.analytic_worst) /
                  static_cast<double>(kBurstPeriod);
  r.feasible = r.utilization <= 1.0;
  // A saturated wire has no finite worst case: the backlog (and the
  // measured "worst latency") grows with the horizon.
  if (r.feasible) {
    ACES_CHECK_MSG(r.worst_latency <= r.analytic_worst,
                   std::string(name) + ": measured latency above bound");
  }
  r.wall_ms = 1e3 * bench::seconds_since(t0);
  return r;
}

TransportResult run_flexray(SimTime horizon) {
  TransportResult r;
  r.name = "flexray 10M dyn";
  const auto t0 = std::chrono::steady_clock::now();

  sim::EventQueue queue;
  net::FlexrayFabricConfig cfg;
  cfg.static_cfg.cycle_length = kMillisecond;
  cfg.static_cfg.static_slots = 2;
  cfg.static_cfg.slot_length = 50 * kMicrosecond;
  cfg.minislots = 80;
  cfg.minislot = 10 * kMicrosecond;
  net::FlexrayFabric fabric(queue, cfg);
  const auto src = fabric.attach_node("source");
  const auto dyn = fabric.add_dynamic_frame(src, "payload", 1, kPayloadBytes);
  fabric.start();
  queue.schedule_every(kBurstPeriod, [&] {
    net::FlexrayFabric::DynPayload p;
    p.bytes = kPayloadBytes;
    fabric.send_dynamic(dyn, p);
  });
  queue.run_until(horizon);

  const auto& st = fabric.dyn_stats(dyn);
  r.bursts = st.sent;
  r.worst_latency = st.worst_latency;
  const sched::FlexrayDynHopParams hp =
      fabric.dynamic_hop_params(dyn, /*deadline=*/2 * kMillisecond);
  // One producer at the highest dynamic priority: bound = one full cycle
  // of offset + the static segment + its own occupancy.
  r.analytic_worst = hp.cycle_length + hp.static_segment +
                     static_cast<SimTime>(hp.slot_minislots) * hp.minislot;
  r.utilization = static_cast<double>(fabric.dyn_info(dyn).minislots) *
                  static_cast<double>(cfg.minislot) /
                  static_cast<double>(kBurstPeriod);
  ACES_CHECK_MSG(r.worst_latency <= r.analytic_worst,
                 "flexray: measured latency above bound");
  r.wall_ms = 1e3 * bench::seconds_since(t0);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args{argc, argv};
  const SimTime horizon = args.num("--horizon-ms", 2000) * kMillisecond;
  const char* json_path = args.get("--json");

  std::printf("=== heterogeneous fabrics: 64 bytes every 1 ms, four wires "
              "===\n\n");
  std::vector<TransportResult> results;
  results.push_back(
      run_can("classic 500k", 500'000, 0, /*fd=*/false, horizon));
  results.push_back(
      run_can("fd 500k/2M", 500'000, 2'000'000, /*fd=*/true, horizon));
  results.push_back(
      run_can("fd 500k/5M", 500'000, 5'000'000, /*fd=*/true, horizon));
  results.push_back(run_flexray(horizon));

  std::printf("%-14s %9s %6s %12s %12s %9s\n", "transport", "bursts",
              "util", "worst", "bound", "wall");
  for (const TransportResult& r : results) {
    std::printf("%-14s %9llu %5.0f%% %10lldus %10lldus %7.0fms%s\n",
                r.name.c_str(), static_cast<unsigned long long>(r.bursts),
                100.0 * r.utilization,
                static_cast<long long>(r.worst_latency / 1000),
                r.feasible ? static_cast<long long>(r.analytic_worst / 1000)
                           : -1,
                r.wall_ms, r.feasible ? "" : "  SATURATED");
  }
  std::printf("\nShape: 64 bytes/ms needs 8 classic frames and more wire "
              "time than the period\nprovides — classic CAN saturates and "
              "its backlog diverges. One FD frame at a\n2 Mbps data phase "
              "carries the same payload in a fifth of the wire time, and\n"
              "the FlexRay dynamic segment trades a cycle of latency for "
              "TDMA isolation.\n");

  if (json_path != nullptr) {
    support::JsonWriter json;
    bench::begin_artifact(json, "bench_fabric");
    json.field("payload_bytes", kPayloadBytes);
    json.field("burst_period_us", kBurstPeriod / 1000);
    json.field("horizon_ms", horizon / kMillisecond);
    json.key("transports").begin_array(4);
    for (const TransportResult& r : results) {
      json.begin_object().field("name", r.name).field("feasible", r.feasible);
      json.field("utilization", r.utilization).field("bursts", r.bursts);
      json.field("worst_latency_us", r.worst_latency / 1000);
      json.field("bound_us", r.feasible ? r.analytic_worst / 1000 : -1);
      json.field("wall_ms", r.wall_ms).end();
    }
    json.end().end();
    support::write_json_file(json_path, json);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
