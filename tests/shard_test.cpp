// Sharded co-simulation tests: the ShardedSimulation epoch machinery
// (adaptive boundaries, deterministic cross-shard merge, watchdog
// propagation), the NetworkBuilder partitioning pass (gateway-bounded
// shards, lookahead derivation, zero-latency collapse), and the contract
// the whole PR rests on — double runs are bit-identical at any thread
// count, and a sharded model-fidelity network reproduces the single-shard
// run exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "net/network.h"
#include "sim/sharded.h"

namespace aces::sim {
namespace {

using aces::net::BusId;
using aces::net::GatewayId;
using aces::net::ModelTask;
using aces::net::NetworkBuilder;

// ----- coordinator-level: epochs, merge order, determinism -------------------

TEST(ShardedSimulation, SingleShardIsThePlainScheduler) {
  ShardedSimulation sim;
  Shard& s = sim.add_shard();
  std::vector<SimTime> fired;
  s.schedule_at(10, [&] { fired.push_back(s.now()); });
  s.schedule_at(30, [&] { fired.push_back(s.now()); });
  sim.run_until(100);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 30}));
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.epochs(), 0u);  // short-circuited, no epoch machinery
}

TEST(ShardedSimulation, CrossShardEventLandsAtItsExactTimestamp) {
  ShardedSimulation sim;
  Shard& a = sim.add_shard();
  Shard& b = sim.add_shard();
  sim.set_lookahead(100);
  sim.set_threads(1);
  std::vector<SimTime> arrivals;
  // Posted mid-epoch from a's loop: crosses at least one boundary, must
  // still fire on b at exactly t=500 (the stamp, not the boundary).
  a.schedule_at(17, [&] {
    Shard::current()->post_cross(b, 500, [&] { arrivals.push_back(b.now()); });
  });
  sim.run_until(1000);
  EXPECT_EQ(arrivals, (std::vector<SimTime>{500}));
}

TEST(ShardedSimulation, SameInstantCrossShardArrivalsMergeInShardOrder) {
  // Three source shards all post to shard 0 at the same instant; the
  // merge order must be (timestamp, source shard, post order) — FIFO
  // sequence numbers on the destination queue — at every thread count.
  for (const unsigned threads : {1u, 2u, 4u}) {
    ShardedSimulation sim;
    Shard& dst = sim.add_shard();
    std::vector<Shard*> src;
    for (int k = 0; k < 3; ++k) {
      src.push_back(&sim.add_shard());
    }
    sim.set_lookahead(50);
    sim.set_threads(threads);
    std::vector<int> order;
    for (int k = 0; k < 3; ++k) {
      Shard* s = src[static_cast<std::size_t>(k)];
      s->schedule_at(10, [&, s, k] {
        // Two posts per shard, same timestamp: post order is the tie-break.
        Shard::current()->post_cross(dst, 200,
                                     [&order, k] { order.push_back(2 * k); });
        Shard::current()->post_cross(
            dst, 200, [&order, k] { order.push_back(2 * k + 1); });
      });
    }
    sim.run_until(400);
    // Source shards 1..3 in index order, each shard's two posts in post
    // order: {0,1} then {2,3} then {4,5}.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}))
        << "threads=" << threads;
    EXPECT_EQ(dst.now(), 400);
  }
}

TEST(ShardedSimulation, PostCrossBelowTheLookaheadContractThrows) {
  ShardedSimulation sim;
  Shard& a = sim.add_shard();
  Shard& b = sim.add_shard();
  sim.set_lookahead(100);
  sim.set_threads(1);
  bool threw = false;
  a.schedule_at(10, [&] {
    try {
      Shard::current()->post_cross(b, 11, [] {});  // 11 < epoch end
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  sim.run_until(1000);
  EXPECT_TRUE(threw);
}

TEST(ShardedSimulation, IdleShardsJumpInFewEpochs) {
  ShardedSimulation sim;
  Shard& a = sim.add_shard();
  sim.add_shard();
  sim.set_lookahead(10);  // tiny lookahead, huge horizon
  sim.set_threads(1);
  int fired = 0;
  a.schedule_at(1'000'000, [&] { ++fired; });
  sim.run_until(100'000'000);
  EXPECT_EQ(fired, 1);
  // Adaptive epochs: one hop to the event, one tail hop — not 10^7 ticks.
  EXPECT_LE(sim.epochs(), 4u);
}

TEST(ShardedSimulation, RelaxedPostRunsAtTheNextBoundary) {
  ShardedSimulation sim;
  Shard& a = sim.add_shard();
  Shard& b = sim.add_shard();
  sim.set_lookahead(100);
  sim.set_threads(1);
  SimTime applied_at = -1;
  a.schedule_at(10, [&] {
    run_on(b, [&] { applied_at = b.now(); });
  });
  sim.run_until(1000);
  // Bounded lateness: after the posting instant, at most one epoch later.
  EXPECT_GE(applied_at, 10);
  EXPECT_LE(applied_at, 10 + 100);
}

TEST(ShardedSimulation, DoubleRunsAreIdenticalAcrossThreadCounts) {
  // A ping-pong workload: every arrival posts back to the peer shard at
  // +lookahead, two independent chains plus same-instant collisions.
  // Each shard records its own arrivals (time, tag) — only that shard's
  // worker ever touches its trace — and every per-shard trace must be
  // identical at every thread count, as must the merged view ordered by
  // (time, shard, seq).
  using Trace = std::vector<std::pair<SimTime, int>>;
  using Merged = std::vector<std::tuple<SimTime, int, std::size_t, int>>;
  struct Run {
    std::array<Trace, 2> per_shard;
    Merged merged;
  };
  const auto run = [](unsigned threads) {
    ShardedSimulation sim;
    Shard& a = sim.add_shard();
    Shard& b = sim.add_shard();
    sim.set_lookahead(100);
    sim.set_threads(threads);
    Run out;
    std::function<void(Shard&, Shard&, int)> bounce =
        [&bounce, &out](Shard& here, Shard& peer, int tag) {
          out.per_shard[here.index()].emplace_back(here.now(), tag);
          if (here.now() < 2000) {
            Shard::current()->post_cross(
                peer, here.now() + 100,
                [&peer, &here, tag, &bounce] { bounce(peer, here, tag); });
          }
        };
    a.schedule_at(0, [&] { bounce(a, b, 1); });
    a.schedule_at(0, [&] { bounce(a, b, 2); });
    b.schedule_at(50, [&] { bounce(b, a, 3); });
    sim.run_until(3000);
    for (std::size_t s = 0; s < out.per_shard.size(); ++s) {
      for (std::size_t seq = 0; seq < out.per_shard[s].size(); ++seq) {
        const auto& [at, tag] = out.per_shard[s][seq];
        out.merged.emplace_back(at, static_cast<int>(s), seq, tag);
      }
    }
    std::sort(out.merged.begin(), out.merged.end());
    return out;
  };
  const Run r1 = run(1);
  EXPECT_FALSE(r1.per_shard[0].empty());
  EXPECT_FALSE(r1.per_shard[1].empty());
  for (const unsigned threads : {2u, 4u}) {
    const Run rn = run(threads);
    EXPECT_EQ(rn.per_shard[0], r1.per_shard[0]) << threads << " threads";
    EXPECT_EQ(rn.per_shard[1], r1.per_shard[1]) << threads << " threads";
    EXPECT_EQ(rn.merged, r1.merged) << threads << " threads";
  }
}

TEST(ShardedSimulation, WatchdogTripsOnTheGlobalCountAcrossShards) {
  for (const unsigned threads : {1u, 2u}) {
    ShardedSimulation sim;
    Shard& a = sim.add_shard();
    Shard& b = sim.add_shard();
    sim.set_lookahead(100);
    sim.set_threads(threads);
    // Shard a livelocks at t=10: same-instant self-rescheduling chain
    // that never advances time. Only the watchdog can stop the run.
    // The chain captures a raw pointer to the function (a self-owning
    // shared_ptr would be a leak cycle); the local keeps it alive.
    auto spin = std::make_shared<std::function<void()>>();
    *spin = [&a, raw = spin.get()] { a.schedule_in(0, *raw); };
    a.schedule_at(10, [spin] { (*spin)(); });
    int b_fired = 0;
    b.schedule_at(5, [&] { ++b_fired; });
    sim.set_watchdog([](std::uint64_t events) { return events >= 50'000; });
    sim.run_until(kSecond);
    EXPECT_TRUE(sim.watchdog_tripped());
    EXPECT_EQ(b_fired, 1);  // the healthy shard ran its pre-trip work
    EXPECT_LT(sim.now(), kSecond);
    // Tripped latch: further runs are frozen until a new watchdog.
    const SimTime frozen = sim.now();
    sim.run_until(kSecond);
    EXPECT_EQ(sim.now(), frozen);
  }
}

// ----- partitioning pass ------------------------------------------------------

net::GatewayConfig gw_cfg(SimTime latency) {
  net::GatewayConfig gc;
  gc.forwarding_latency = latency;
  return gc;
}

TEST(NetworkSharding, GatewayBoundedPartitionAndLookahead) {
  NetworkBuilder nb;
  const BusId pt = nb.bus("powertrain", 500'000);
  const BusId body = nb.bus("body", 125'000);
  const BusId diag = nb.bus("diag", 250'000);
  const GatewayId gw = nb.gateway("central", gw_cfg(200 * kMicrosecond));
  nb.route(gw, {pt, body, 0x100, 0x7FF, {}});
  nb.route(gw, {body, diag, 0x200, 0x7FF, {}});
  net::Network net = nb.build();
  // Three buses, gateway-bounded edges only: one shard per bus, the
  // uniform forwarding latency is the lookahead.
  EXPECT_EQ(net.shard_count(), 3u);
  EXPECT_EQ(net.lookahead(), 200 * kMicrosecond);
  // Distinct buses, distinct shards.
  EXPECT_NE(&net.shard(pt), &net.shard(body));
  EXPECT_NE(&net.shard(body), &net.shard(diag));
}

TEST(NetworkSharding, ZeroLatencyGatewayMergesItsBuses) {
  NetworkBuilder nb;
  const BusId a = nb.bus("a", 500'000);
  const BusId b = nb.bus("b", 500'000);
  const GatewayId gw = nb.gateway("gw", gw_cfg(0));
  nb.route(gw, {a, b, 0x100, 0x7FF, {}});
  net::Network net = nb.build();
  // Zero lookahead cannot shard: both buses collapse onto one shard and
  // the network runs the pre-sharding single-shard path.
  EXPECT_EQ(net.shard_count(), 1u);
  EXPECT_EQ(&net.shard(a), &net.shard(b));
}

TEST(NetworkSharding, MixedPerRouteLatenciesMergeTheDirection) {
  NetworkBuilder nb;
  const BusId a = nb.bus("a", 500'000);
  const BusId b = nb.bus("b", 500'000, 2'000'000);
  const GatewayId gw = nb.gateway("gw", gw_cfg(100 * kMicrosecond));
  nb.route(gw, {a, b, 0x100, 0x7FF, {}});
  net::PackedRoute pr;
  pr.from = a;
  pr.to = b;
  pr.table = {{0x10, 0, 4}};
  pr.trigger_id = 0x10;
  pr.egress_id = 0x200;
  pr.egress_fd = true;
  pr.egress_dlc = 9;
  pr.latency = 40 * kMicrosecond;  // second distinct latency a -> b
  nb.packed_route(gw, pr);
  net::Network net = nb.build();
  // Two distinct latencies on one directed pair would break the egress
  // admission replay; the partitioner merges those buses instead.
  EXPECT_EQ(net.shard_count(), 1u);
}

TEST(NetworkSharding, ShardsAcceptsOnlyPartitionOrSingle) {
  NetworkBuilder nb;
  EXPECT_NO_THROW(nb.shards(0));
  EXPECT_NO_THROW(nb.shards(1));
  EXPECT_THROW(nb.shards(2), std::logic_error);
}

// ----- net-level determinism: sharded == single-shard ------------------------

// Every counter a gateway keeps, flattened for exact comparison: each
// direction's snapshot over every ordered bus pair (unrouted pairs read
// zero), then every packed and unpack route's translation stats.
std::vector<std::int64_t> gateway_counters(net::Network& net) {
  std::vector<std::int64_t> out;
  for (std::size_t g = 0; g < net.gateway_count(); ++g) {
    net::GatewayNode& gw = net.gateway(static_cast<GatewayId>(g));
    for (std::size_t from = 0; from < net.bus_count(); ++from) {
      for (std::size_t to = 0; to < net.bus_count(); ++to) {
        const net::GatewayNode::DirectionStats d = gw.direction(
            static_cast<BusId>(from), static_cast<BusId>(to));
        out.insert(out.end(),
                   {static_cast<std::int64_t>(d.forwarded),
                    static_cast<std::int64_t>(d.delivered),
                    static_cast<std::int64_t>(d.dropped_overflow),
                    static_cast<std::int64_t>(d.dropped_translation),
                    static_cast<std::int64_t>(d.queued),
                    static_cast<std::int64_t>(d.peak_queued),
                    d.worst_transit});
      }
    }
    const auto append = [&out](const net::GatewayNode::TranslationStats& t) {
      out.insert(out.end(), {static_cast<std::int64_t>(t.updates),
                             static_cast<std::int64_t>(t.emitted),
                             t.worst_transit});
    };
    for (std::size_t i = 0; i < gw.packed_routes().size(); ++i) {
      append(gw.packed_stats(i));
    }
    for (std::size_t i = 0; i < gw.unpack_routes().size(); ++i) {
      append(gw.unpack_stats(i));
    }
  }
  return out;
}

// Frames every gateway dropped (the one-frame-queue inputs must drop).
std::uint64_t gateway_drops(net::Network& net) {
  std::uint64_t drops = 0;
  for (std::size_t g = 0; g < net.gateway_count(); ++g) {
    drops += net.gateway(static_cast<GatewayId>(g)).stats().frames_dropped;
  }
  return drops;
}

// A three-bus kernel-model vehicle: periodic senders on two buses, a
// central gateway routing both directions, RX-activated consumers.
// Model-fidelity networks are pure event-driven, so the sharded run must
// reproduce the single-shard run EXACTLY (same frames, same instants,
// same gateway counters). The engine publishes a second frame just
// before its first one completes on the slow body bus: with a one-frame
// gateway queue the second frame overflows at its ingress instant, while
// by the time it reaches the body shard the first one has left — only
// the cross-shard admission replay reproduces the serial drop.
NetworkBuilder vehicle_topology(unsigned queue_depth = 16) {
  NetworkBuilder nb;
  const BusId pt = nb.bus("powertrain", 500'000);
  const BusId body = nb.bus("body", 125'000);
  const BusId diag = nb.bus("diag", 250'000);
  net::GatewayConfig gc = gw_cfg(200 * kMicrosecond);
  gc.queue_depth = queue_depth;
  const GatewayId gw = nb.gateway("central", gc);
  nb.route(gw, {pt, body, 0x100, 0x700, {}});
  nb.route(gw, {body, pt, 0x300, 0x700, {}});
  nb.route(gw, {pt, diag, 0x100, 0x700, {}});

  ModelTask speed;
  speed.name = "speed";
  speed.priority = 5;
  speed.exec = 200 * kMicrosecond;
  speed.period = 5 * kMillisecond;
  speed.deadline = 5 * kMillisecond;
  can::CanFrame speed_tx;
  speed_tx.id = 0x120;
  speed_tx.dlc = 8;
  speed.tx = speed_tx;
  ModelTask rpm = speed;
  rpm.name = "rpm";
  rpm.priority = 4;
  rpm.exec = 1100 * kMicrosecond;
  rpm.tx->id = 0x121;
  nb.ecu(pt, "engine", {speed, rpm});

  ModelTask door;
  door.name = "door";
  door.priority = 4;
  door.exec = 300 * kMicrosecond;
  door.period = 10 * kMillisecond;
  door.deadline = 10 * kMillisecond;
  can::CanFrame door_tx;
  door_tx.id = 0x320;
  door_tx.dlc = 4;
  door.tx = door_tx;
  nb.ecu(body, "door", {door});
  return nb;
}

struct RunSignature {
  std::uint64_t frames = 0;
  std::uint64_t latency_hash = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::vector<std::int64_t> gateway;

  bool operator==(const RunSignature& o) const {
    return frames == o.frames && latency_hash == o.latency_hash &&
           forwarded == o.forwarded && delivered == o.delivered &&
           dropped == o.dropped && gateway == o.gateway;
  }
};

RunSignature run_vehicle(NetworkBuilder nb, unsigned threads) {
  nb.threads(threads);
  net::Network net = nb.build();
  RunSignature sig;
  // Observe every delivery on every bus: id and exact end-of-frame time
  // folded into an order-independent-but-exact hash (sum of products).
  // Accumulate per bus: each bus lives on one shard, so its callbacks are
  // sequential, but different buses fire on different worker threads — a
  // shared accumulator would be a data race. Folded after the run.
  struct BusAcc {
    std::uint64_t frames = 0;
    std::uint64_t hash = 0;
  };
  std::vector<BusAcc> acc(net.bus_count());
  for (std::size_t b = 0; b < net.bus_count(); ++b) {
    const auto id = static_cast<BusId>(b);
    const can::NodeId probe = net.bus(id).attach_node("probe");
    net.bus(id).subscribe(probe,
                          [a = &acc[b]](const can::CanFrame& f, SimTime at) {
                            ++a->frames;
                            a->hash +=
                                (static_cast<std::uint64_t>(f.id) + 1) *
                                static_cast<std::uint64_t>(at);
                          });
  }
  net.run_until(400 * kMillisecond);
  for (const BusAcc& a : acc) {
    sig.frames += a.frames;
    sig.latency_hash += a.hash;
  }
  sig.forwarded = net.gateway(0).stats().frames_forwarded;
  sig.delivered = net.gateway(0).stats().frames_delivered;
  sig.dropped = gateway_drops(net);
  sig.gateway = gateway_counters(net);
  return sig;
}

TEST(NetworkSharding, ShardedVehicleReproducesTheSingleShardRun) {
  for (const unsigned depth : {16u, 1u}) {
    SCOPED_TRACE("queue_depth " + std::to_string(depth));
    NetworkBuilder sharded = vehicle_topology(depth);
    NetworkBuilder single = vehicle_topology(depth);
    single.shards(1);
    {
      net::Network probe = vehicle_topology(depth).build();
      ASSERT_EQ(probe.shard_count(), 3u);  // the sharded build really shards
    }
    const RunSignature base = run_vehicle(single, 1);
    EXPECT_GT(base.frames, 0u);
    EXPECT_GT(base.forwarded, 0u);
    EXPECT_EQ(base.dropped > 0, depth == 1);
    // 1-vs-N shards and 1-vs-N threads: all identical to the serial run.
    EXPECT_EQ(run_vehicle(sharded, 1), base);
    EXPECT_EQ(run_vehicle(sharded, 2), base);
    EXPECT_EQ(run_vehicle(sharded, 4), base);
  }
}

TEST(NetworkSharding, ZonalFlexrayTopologyIsShardCountInvariant) {
  // CAN zone -> translating gateway -> FlexRay backbone -> gateway -> CAN
  // zone: the cross-fabric path of the zonal example, here pinned to be
  // identical between the single-shard and sharded builds.
  const auto topology = [](unsigned queue_depth) {
    NetworkBuilder nb;
    const BusId zone_f = nb.bus("zone_front", 500'000);
    const BusId zone_r = nb.bus("zone_rear", 500'000);
    net::FlexrayFabricConfig fc;
    fc.static_cfg.cycle_length = kMillisecond;
    fc.static_cfg.static_slots = 1;
    fc.static_cfg.slot_length = 50 * kMicrosecond;
    fc.minislots = 40;  // dynamic slot id 30 is reachable within a cycle
    fc.minislot = 20 * kMicrosecond;
    const BusId bb = nb.flexray("backbone", fc);
    net::GatewayConfig gc = gw_cfg(100 * kMicrosecond);
    gc.queue_depth = queue_depth;
    const GatewayId gf = nb.gateway("gw_front", gc);
    const GatewayId gr = nb.gateway("gw_rear", gc);
    net::PackedRoute pr;
    pr.from = zone_f;
    pr.to = bb;
    pr.table = {{0x10, 0, 4}, {0x11, 4, 4}};
    pr.trigger_id = 0x11;
    nb.packed_route_flexray(gf, pr, "agg", 30);
    net::UnpackRoute ur;
    ur.from = bb;
    ur.to = zone_r;
    ur.table = {{0x20, false, 4, 0}, {0x21, false, 4, 4}};
    nb.unpack_route_flexray(gr, ur, 30);

    ModelTask sensor;
    sensor.name = "sensor";
    sensor.priority = 5;
    sensor.exec = 100 * kMicrosecond;
    sensor.period = 5 * kMillisecond;
    sensor.deadline = 5 * kMillisecond;
    can::CanFrame sensor_tx;
    sensor_tx.id = 0x10;
    sensor_tx.dlc = 4;
    sensor.tx = sensor_tx;
    ModelTask trigger = sensor;
    trigger.name = "trigger";
    trigger.priority = 4;
    can::CanFrame trigger_tx;
    trigger_tx.id = 0x11;
    trigger_tx.dlc = 4;
    trigger.tx = trigger_tx;
    nb.ecu(zone_f, "front_sensors", {sensor, trigger});
    return nb;
  };
  const auto run = [&](unsigned depth, bool single_shard, unsigned threads) {
    NetworkBuilder nb = topology(depth);
    if (single_shard) {
      nb.shards(1);
    }
    nb.threads(threads);
    net::Network net = nb.build();
    RunSignature sig;
    const can::NodeId probe = net.bus(1).attach_node("probe");
    net.bus(1).subscribe(probe, [&](const can::CanFrame& f, SimTime at) {
      ++sig.frames;
      sig.latency_hash += (static_cast<std::uint64_t>(f.id) + 1) *
                          static_cast<std::uint64_t>(at);
    });
    net.run_until(200 * kMillisecond);
    sig.dropped = gateway_drops(net);
    sig.gateway = gateway_counters(net);
    return sig;
  };
  {
    net::Network probe = topology(16).build();
    ASSERT_EQ(probe.shard_count(), 3u);
  }
  // A one-frame queue drops the second slice of every unpacked frame.
  for (const unsigned depth : {16u, 1u}) {
    SCOPED_TRACE("queue_depth " + std::to_string(depth));
    const RunSignature base = run(depth, true, 1);
    EXPECT_GT(base.frames, 0u);
    EXPECT_EQ(base.dropped > 0, depth == 1);
    EXPECT_EQ(run(depth, false, 1), base);
    EXPECT_EQ(run(depth, false, 2), base);
    EXPECT_EQ(run(depth, false, 4), base);
  }
}

TEST(NetworkSharding, WatchdogTripPropagatesAcrossNetworkShards) {
  NetworkBuilder nb = vehicle_topology();
  net::Network net = nb.build();
  ASSERT_GT(net.shard_count(), 1u);
  // Livelock one shard's queue mid-run; the global watchdog must stop
  // every shard, and the trip must be visible at the network surface.
  sim::Simulation& victim = net.shard(0);
  auto spin = std::make_shared<std::function<void()>>();
  *spin = [&victim, raw = spin.get()] { victim.schedule_in(0, *raw); };
  victim.schedule_at(20 * kMillisecond, [spin] { (*spin)(); });
  net.simulation().set_watchdog(
      [](std::uint64_t events) { return events >= 100'000; });
  net.run_until(kSecond);
  EXPECT_TRUE(net.simulation().watchdog_tripped());
  EXPECT_LT(net.now(), kSecond);
}

}  // namespace
}  // namespace aces::sim
