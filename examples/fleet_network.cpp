// Fleet-scale sharded co-simulation: dozens of buses, hundreds of ECUs,
// one deterministic time base — the scenario the sharding tentpole exists
// for.
//
// Topology: a 1 Mbps spine bus and kZones 500 kbps zone buses, each zone
// bridged to the spine by its own store-and-forward gateway (200 us
// forwarding latency). Every zone carries kEcusPerZone kernel-model ECUs
// publishing periodic state frames; the zone's status frame (one id per
// zone) is routed up to the spine, and a fleet-wide command frame
// published by the spine controller is routed down into every zone.
//
// NetworkBuilder::build() partitions this into kZones + 1 gateway-bounded
// shards with the gateway latency as the synchronization lookahead, and
// ShardedSimulation advances them in lock-stepped epochs on a worker
// pool. The example self-checks the contract that makes the parallelism
// free: the auto-sharded run reproduces the single-shard run EXACTLY —
// same delivered frames at the same nanoseconds, same gateway counters,
// same event totals — at every thread count.
//
//   $ ./examples/fleet_network
#include <cstdio>
#include <cstdint>
#include <vector>

#include "net/network.h"
#include "support/check.h"

using namespace aces;
using sim::kMicrosecond;
using sim::kMillisecond;
using sim::SimTime;

namespace {

constexpr int kZones = 24;
constexpr int kEcusPerZone = 10;
constexpr SimTime kGwLatency = 200 * kMicrosecond;
constexpr SimTime kHorizon = 2 * sim::kSecond;
constexpr std::uint32_t kCommandId = 0x050;

net::NetworkBuilder fleet_topology() {
  net::NetworkBuilder nb;
  const net::BusId spine = nb.bus("spine", 1'000'000);

  // Spine controller: fleet-wide command every 20 ms, fanned out into
  // every zone by the per-zone gateways.
  net::ModelTask command;
  command.name = "command";
  command.priority = 5;
  command.exec = 100 * kMicrosecond;
  command.period = 20 * kMillisecond;
  command.deadline = 20 * kMillisecond;
  can::CanFrame cmd;
  cmd.id = kCommandId;
  cmd.dlc = 8;
  command.tx = cmd;
  nb.ecu(spine, "fleet_controller", {command});

  net::GatewayConfig gc;
  gc.forwarding_latency = kGwLatency;
  gc.queue_depth = 16;

  for (int z = 0; z < kZones; ++z) {
    const net::BusId zone =
        nb.bus("zone" + std::to_string(z), 500'000);
    const net::GatewayId gw =
        nb.gateway("gw" + std::to_string(z), gc);
    // Zone status up to the spine; fleet command down into the zone.
    const auto status_id = static_cast<std::uint32_t>(0x100 + z);
    nb.route(gw, {zone, spine, status_id, 0x7FF, {}});
    nb.route(gw, {spine, zone, kCommandId, 0x7FF, {}});

    for (int e = 0; e < kEcusPerZone; ++e) {
      net::ModelTask task;
      task.name = "app";
      task.priority = 5;
      task.exec = 150 * kMicrosecond;
      task.period = 10 * kMillisecond;
      // Stagger activations so the bus sees realistic interleaving, not
      // one synchronized burst per period.
      task.offset = static_cast<SimTime>(e) * 300 * kMicrosecond;
      task.deadline = 10 * kMillisecond;
      can::CanFrame f;
      // ECU 0 publishes the routed zone-status id; the rest stay local.
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

struct FleetResult {
  std::uint64_t frames = 0;        // deliveries heard across every bus
  std::uint64_t delivery_hash = 0; // exact (id, instant) fold
  std::uint64_t forwarded = 0;     // summed over the zone gateways
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::size_t shards = 0;
  SimTime lookahead = 0;
};

FleetResult run_fleet(net::NetworkBuilder nb) {
  net::Network net = nb.build();
  // One tally per bus: a bus's subscribers run on its own shard's worker,
  // so each tally has a single writer; they are summed after the run.
  struct BusTally {
    std::uint64_t frames = 0;
    std::uint64_t hash = 0;
  };
  std::vector<BusTally> tallies(net.bus_count());
  for (std::size_t b = 0; b < net.bus_count(); ++b) {
    const auto id = static_cast<net::BusId>(b);
    const can::NodeId probe = net.bus(id).attach_node("probe");
    net.bus(id).subscribe(probe, [t = &tallies[b]](const can::CanFrame& f,
                                                   SimTime at) {
      ++t->frames;
      t->hash += (static_cast<std::uint64_t>(f.id) + 1) *
                 static_cast<std::uint64_t>(at);
    });
  }
  net.run_until(kHorizon);
  FleetResult r;
  for (const BusTally& t : tallies) {
    r.frames += t.frames;
    r.delivery_hash += t.hash;
  }
  for (std::size_t g = 0; g < net.gateway_count(); ++g) {
    const auto st = net.gateway(static_cast<net::GatewayId>(g)).stats();
    r.forwarded += st.frames_forwarded;
    r.delivered += st.frames_delivered;
    r.dropped += st.frames_dropped;
  }
  r.events = net.simulation().events_executed();
  r.epochs = net.simulation().epochs();
  r.shards = net.shard_count();
  r.lookahead = net.lookahead();
  return r;
}

}  // namespace

int main() {
  std::printf("=== fleet network: %d zones x %d ECUs + spine, gateway "
              "latency %lldus ===\n\n",
              kZones, kEcusPerZone,
              static_cast<long long>(kGwLatency / 1000));

  // Reference: the same fleet forced onto a single shard — byte-for-byte
  // the pre-sharding scheduler.
  net::NetworkBuilder single = fleet_topology();
  single.shards(1);
  const FleetResult base = run_fleet(single);
  ACES_CHECK(base.shards == 1);
  ACES_CHECK(base.frames > 0);
  ACES_CHECK(base.dropped == 0);

  // Auto-sharded at 1 and 2 worker threads: the partition must split one
  // shard per bus, and every observable must match the serial run.
  FleetResult sharded[2];
  for (int k = 0; k < 2; ++k) {
    net::NetworkBuilder nb = fleet_topology();
    nb.threads(static_cast<unsigned>(k + 1));
    sharded[k] = run_fleet(nb);
  }

  std::printf("%-22s %10s %12s %12s %10s %8s\n", "run", "shards", "frames",
              "events", "epochs", "fwd");
  const auto row = [](const char* name, const FleetResult& r) {
    std::printf("%-22s %10zu %12llu %12llu %10llu %8llu\n", name, r.shards,
                static_cast<unsigned long long>(r.frames),
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.epochs),
                static_cast<unsigned long long>(r.forwarded));
  };
  row("single-shard", base);
  row("sharded, 1 thread", sharded[0]);
  row("sharded, 2 threads", sharded[1]);

  for (const FleetResult& r : sharded) {
    ACES_CHECK(r.shards == static_cast<std::size_t>(kZones) + 1);
    ACES_CHECK(r.lookahead == kGwLatency);
    ACES_CHECK(r.frames == base.frames);
    ACES_CHECK(r.delivery_hash == base.delivery_hash);
    ACES_CHECK(r.forwarded == base.forwarded);
    ACES_CHECK(r.delivered == base.delivered);
    ACES_CHECK(r.dropped == 0);
    ACES_CHECK(r.events == base.events);
    ACES_CHECK(r.epochs == sharded[0].epochs);  // thread-count invariant
  }

  std::printf("\nall checks passed: %d ECUs on %d buses, %zu shards, "
              "sharded runs identical to the single-shard scheduler at "
              "every thread count.\n",
              kZones * kEcusPerZone + 1, kZones + 1, sharded[0].shards);
  return 0;
}
