// net layer tests: multi-bus topologies, gateway routing/queueing, the
// EcuNode abstraction at both fidelities, and the load-bearing property —
// measured end-to-end latency of routed traffic never exceeds the
// sched::path_rta bound, fault-free and under a bounded bit-error campaign.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "cpu/profiles.h"
#include "isa/assembler.h"
#include "net/network.h"
#include "sched/can_rta.h"

namespace aces::net {
namespace {

using sim::kMicrosecond;
using sim::kMillisecond;
using sim::SimTime;

constexpr unsigned kRxLine = 1;
constexpr std::uint32_t kCount = cpu::kSramBase + 0x100;

// Minimal counting guest: WFI loop; the ISR bumps a counter, pops, acks.
GuestProgram counting_program() {
  using namespace isa;
  using Ctl = can::CanController;
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
  GuestProgram p;
  p.image = a.assemble();
  p.entry = a.label_address(entry);
  p.handlers.push_back({kRxLine, a.label_address(isr), 32});
  return p;
}

TEST(Gateway, ForwardsMatchingFramesWithRemapAndLatency) {
  NetworkBuilder nb;
  const BusId a = nb.bus("a", 500'000);
  const BusId b = nb.bus("b", 125'000);
  GatewayConfig gc;
  gc.forwarding_latency = 300 * kMicrosecond;
  const GatewayId gw = nb.gateway("gw", gc);
  Route r;
  r.from = a;
  r.to = b;
  r.match = 0x100;
  r.mask = 0x7F0;  // a whole identifier window
  r.remap = 0x210;
  nb.route(gw, r);
  Network net = nb.build();

  const can::NodeId src = net.bus(a).attach_node("src");
  const can::NodeId dst = net.bus(b).attach_node("dst");
  std::vector<std::uint32_t> heard;
  SimTime delivered_at = 0;
  SimTime origin_stamp = -1;
  net.bus(b).subscribe(dst, [&](const can::CanFrame& f, SimTime at) {
    heard.push_back(f.id);
    delivered_at = at;
    origin_stamp = f.timestamp;
  });

  can::CanFrame in_window;  // 0x104 & 0x7F0 == 0x100: forwarded
  in_window.id = 0x104;
  in_window.dlc = 4;
  in_window.data[0] = 0xAB;
  can::CanFrame outside;  // 0x300: not forwarded
  outside.id = 0x300;
  outside.dlc = 2;
  net.shard(a).schedule_at(kMillisecond, [&] {
    net.bus(a).send(src, in_window);
    net.bus(a).send(src, outside);
  });
  net.run_until(sim::kSecond);

  ASSERT_EQ(heard.size(), 1u);
  EXPECT_EQ(heard[0], 0x210u);  // remapped on egress
  // Origin timestamp rides across the hop: stamped at the source queue
  // instant, so the receiver measures true end-to-end latency.
  EXPECT_EQ(origin_stamp, kMillisecond);
  // Exact transit: ingress frame time + forwarding latency + egress frame
  // time (the bus is otherwise idle).
  const SimTime hop1 =
      net.bus(a).frame_time(in_window);  // same dlc, exact stuffing
  can::CanFrame remapped = in_window;
  remapped.id = 0x210;
  const SimTime hop2 = net.bus(b).frame_time(remapped);
  EXPECT_EQ(delivered_at,
            kMillisecond + hop1 + gc.forwarding_latency + hop2);
  const GatewayNode::DirectionStats& d = net.gateway(gw).direction(a, b);
  EXPECT_EQ(d.forwarded, 1u);
  EXPECT_EQ(d.delivered, 1u);
  EXPECT_EQ(d.dropped_overflow, 0u);
  EXPECT_EQ(d.worst_transit, hop1 + gc.forwarding_latency + hop2 -
                                 net.bus(a).frame_time(in_window));
}

TEST(Gateway, BoundedQueueDropsOnOverflowAndRecovers) {
  NetworkBuilder nb;
  const BusId fast = nb.bus("fast", 1'000'000);
  const BusId slow = nb.bus("slow", 125'000);
  GatewayConfig gc;
  gc.forwarding_latency = 0;
  gc.queue_depth = 2;
  const GatewayId gw = nb.gateway("gw", gc);
  Route r;
  r.from = fast;
  r.to = slow;
  r.match = 0;
  r.mask = 0;  // match everything
  nb.route(gw, r);
  Network net = nb.build();

  const can::NodeId src = net.bus(fast).attach_node("src");
  // A burst of 6 distinct frames on the fast bus: the slow egress drains
  // one at a time, so with depth 2 the later arrivals overflow.
  for (int k = 0; k < 6; ++k) {
    can::CanFrame f;
    f.id = 0x100 + static_cast<std::uint32_t>(k);
    f.dlc = 8;
    net.bus(fast).send(src, f);
  }
  net.run_until(sim::kSecond);

  const GatewayNode::DirectionStats& d =
      net.gateway(gw).direction(fast, slow);
  EXPECT_EQ(d.forwarded + d.dropped_overflow, 6u);
  EXPECT_EQ(d.forwarded, d.delivered);  // everything accepted got out
  EXPECT_GE(d.dropped_overflow, 1u);
  EXPECT_EQ(d.peak_queued, 2u);  // the bound held
  EXPECT_EQ(d.queued, 0u);       // drained at the horizon
  EXPECT_EQ(net.gateway(gw).stats().frames_dropped, d.dropped_overflow);

  // The direction keeps forwarding after the burst: no stuck accounting.
  can::CanFrame late;
  late.id = 0x050;
  late.dlc = 1;
  net.bus(fast).send(src, late);
  net.run_until(2 * sim::kSecond);
  // direction() is a point-in-time snapshot — re-fetch after the run.
  const GatewayNode::DirectionStats after =
      net.gateway(gw).direction(fast, slow);
  EXPECT_EQ(after.forwarded + after.dropped_overflow, 7u);
  EXPECT_EQ(after.forwarded, after.delivered);
}

TEST(Gateway, CompletionReleasesTheFrameTheWireCarried) {
  // Two frames with one identifier but different arbitration keys share a
  // gateway egress port: A's frame reaches the gateway first, B's wins
  // arbitration on the busy egress bus and leaves first. B's completion
  // must release B's in-flight record, not A's (the FIFO of in-flight
  // frames follows arbitration order, not the bare identifier).
  can::CanFrame std0;  // base id 0x100
  std0.id = 0x100;
  std0.dlc = 0;
  can::CanFrame ext8;  // extended 0x100: base id 0, beats std0
  ext8.id = 0x100;
  ext8.extended = true;
  ext8.dlc = 8;
  can::CanFrame remote;
  remote.id = 0x100;
  remote.rtr = true;
  can::CanFrame data8;  // a data frame beats the same-id remote frame
  data8.id = 0x100;
  data8.dlc = 8;
  const std::pair<can::CanFrame, can::CanFrame> inputs[] = {
      {std0, ext8}, {remote, data8}};
  for (const auto& [fa, fb] : inputs) {
    for (const bool single_shard : {true, false}) {
      SCOPED_TRACE(std::string(fb.extended ? "std/ext" : "remote/data") +
                   (single_shard ? ", shards(1)" : ", partitioned"));
      NetworkBuilder nb;
      const BusId a = nb.bus("a", 500'000);
      const BusId b = nb.bus("b", 500'000);
      const BusId c = nb.bus("c", 125'000);
      GatewayConfig gc;
      gc.forwarding_latency = 100 * kMicrosecond;
      const GatewayId gw = nb.gateway("gw", gc);
      nb.route(gw, {a, c, 0x100, 0x7FF, {}});
      nb.route(gw, {b, c, 0x100, 0x7FF, {}});
      if (single_shard) {
        nb.shards(1);
      }
      Network net = nb.build();
      ASSERT_EQ(net.shard_count(), single_shard ? 1u : 3u);

      // Bus c is busy with a local frame while both forwarded frames
      // enter the gateway's mailbox.
      can::CanFrame block;
      block.id = 0x7F0;
      block.dlc = 8;
      const SimTime ingress_a = net.bus(a).frame_time(fa);
      const SimTime ingress_b = net.bus(b).frame_time(fb);
      const SimTime done_b =
          net.bus(c).frame_time(block) + net.bus(c).frame_time(fb);
      const SimTime done_a = done_b + net.bus(c).frame_time(fa);
      ASSERT_LT(ingress_b + gc.forwarding_latency,
                net.bus(c).frame_time(block));

      std::vector<std::pair<std::uint32_t, SimTime>> heard;
      const can::NodeId sink = net.bus(c).attach_node("sink");
      net.bus(c).subscribe(sink, [&](const can::CanFrame& f, SimTime at) {
        heard.emplace_back(can::arbitration_key(f), at);
      });
      net.bus(a).send(net.bus(a).attach_node("src_a"), fa);
      net.bus(b).send(net.bus(b).attach_node("src_b"), fb);
      net.bus(c).send(net.bus(c).attach_node("local"), block);

      // Between the two egress completions: only B -> C has delivered.
      net.run_until((done_b + done_a) / 2);
      const GatewayNode::DirectionStats mid_a = net.gateway(gw).direction(a, c);
      const GatewayNode::DirectionStats mid_b = net.gateway(gw).direction(b, c);
      EXPECT_EQ(mid_a.forwarded, 1u);
      EXPECT_EQ(mid_a.delivered, 0u);
      EXPECT_EQ(mid_a.queued, 1u);
      EXPECT_EQ(mid_b.forwarded, 1u);
      EXPECT_EQ(mid_b.delivered, 1u);
      EXPECT_EQ(mid_b.queued, 0u);

      net.run_until(10 * kMillisecond);
      ASSERT_EQ(heard.size(), 3u);
      EXPECT_EQ(heard[1], std::make_pair(can::arbitration_key(fb), done_b));
      EXPECT_EQ(heard[2], std::make_pair(can::arbitration_key(fa), done_a));
      const GatewayNode::DirectionStats end_a = net.gateway(gw).direction(a, c);
      const GatewayNode::DirectionStats end_b = net.gateway(gw).direction(b, c);
      EXPECT_EQ(end_a.delivered, 1u);
      EXPECT_EQ(end_b.delivered, 1u);
      EXPECT_EQ(end_a.queued, 0u);
      EXPECT_EQ(end_b.queued, 0u);
      EXPECT_EQ(end_a.worst_transit, done_a - ingress_a);
      EXPECT_EQ(end_b.worst_transit, done_b - ingress_b);
    }
  }
}

TEST(Gateway, CrossShardSnapshotConvergesOneLatencyAfterIngress) {
  // On a partitioned network a cross-shard admission is decided on the
  // egress shard, `forwarding_latency` after ingress. A snapshot read
  // earlier than that does not count the frame yet; from ingress +
  // latency on it equals the shards(1) run, which counts at ingress.
  constexpr SimTime kLatency = 200 * kMicrosecond;
  struct Snapshot {
    GatewayNode::DirectionStats dir;
    GatewayNode::Stats total;
  };
  // One 8-byte frame crosses a -> b; the snapshot is read `after_ingress`
  // past the instant it reaches the gateway.
  const auto probe = [](bool single_shard, SimTime after_ingress) {
    NetworkBuilder nb;
    const BusId a = nb.bus("a", 500'000);
    const BusId b = nb.bus("b", 500'000);
    GatewayConfig gc;
    gc.forwarding_latency = kLatency;
    const GatewayId gw = nb.gateway("gw", gc);
    nb.route(gw, {a, b, 0x100, 0x7FF, {}});
    if (single_shard) {
      nb.shards(1);
    }
    Network net = nb.build();
    EXPECT_EQ(net.shard_count(), single_shard ? 1u : 2u);
    can::CanFrame f;
    f.id = 0x100;
    f.dlc = 8;
    // The egress frame is as long as the ingress one: it is still on the
    // wire until ingress + latency + ingress.
    EXPECT_LT(after_ingress, kLatency + net.bus(a).frame_time(f));
    net.bus(a).send(net.bus(a).attach_node("src"), f);
    net.run_until(net.bus(a).frame_time(f) + after_ingress);
    return Snapshot{net.gateway(gw).direction(a, b), net.gateway(gw).stats()};
  };

  // Before ingress + latency: the shards(1) run has admitted the frame,
  // the partitioned run has not yet.
  const Snapshot one_early = probe(true, kLatency / 2);
  const Snapshot part_early = probe(false, kLatency / 2);
  EXPECT_EQ(one_early.dir.forwarded, 1u);
  EXPECT_EQ(one_early.dir.queued, 1u);
  EXPECT_EQ(one_early.total.frames_forwarded, 1u);
  EXPECT_EQ(part_early.dir.forwarded, 0u);
  EXPECT_EQ(part_early.dir.queued, 0u);
  EXPECT_EQ(part_early.total.frames_forwarded, 0u);

  // After it, with the frame still on the egress wire: both runs agree.
  const Snapshot one = probe(true, kLatency + 10 * kMicrosecond);
  const Snapshot part = probe(false, kLatency + 10 * kMicrosecond);
  EXPECT_EQ(one.dir.forwarded, 1u);
  EXPECT_EQ(one.dir.queued, 1u);
  EXPECT_EQ(one.dir.delivered, 0u);
  EXPECT_EQ(part.dir.forwarded, one.dir.forwarded);
  EXPECT_EQ(part.dir.queued, one.dir.queued);
  EXPECT_EQ(part.dir.delivered, one.dir.delivered);
  EXPECT_EQ(part.dir.peak_queued, one.dir.peak_queued);
  EXPECT_EQ(part.total.frames_forwarded, one.total.frames_forwarded);
  EXPECT_EQ(part.total.frames_delivered, one.total.frames_delivered);
}

TEST(EcuNode, BothFidelitiesAttachThroughOneCall) {
  NetworkBuilder nb;
  const BusId bus = nb.bus("body", 250'000);

  // Kernel-model ECU: a periodic task publishing a frame each completion,
  // and a second task activated by received traffic.
  ModelTask sender;
  sender.name = "sender";
  sender.priority = 5;
  sender.exec = 200 * kMicrosecond;
  sender.period = 10 * kMillisecond;
  can::CanFrame tx;
  tx.id = 0x120;
  tx.dlc = 4;
  sender.tx = tx;
  ModelTask listener;
  listener.name = "listener";
  listener.priority = 3;
  listener.exec = 100 * kMicrosecond;
  listener.activate_on_rx = 0x120;  // its own ECU never receives its own tx
  const EcuId model_id = nb.ecu(bus, "model", {sender, listener});

  // A second model ECU whose listener sees the first ECU's frames.
  ModelTask rx_task;
  rx_task.name = "consumer";
  rx_task.priority = 4;
  rx_task.exec = 100 * kMicrosecond;
  rx_task.activate_on_rx = 0x120;
  const EcuId consumer_id = nb.ecu(bus, "consumer", {rx_task});

  // ISS ECU counting every delivered frame in a compiled ISR.
  can::CanController::Config cc;
  cc.rx_line = kRxLine;
  const EcuId iss_id =
      nb.ecu(bus,
             cpu::profiles::modern_mcu().name("iss").clock_hz(8'000'000)
                 .flash_size(16 * 1024),
             counting_program(), cc);

  Network net = nb.build();
  EXPECT_EQ(net.ecu_count(), 3u);
  // The fidelity probes: exactly one side is non-null.
  EXPECT_NE(net.ecu(model_id).kernel(), nullptr);
  EXPECT_EQ(net.ecu(model_id).system(), nullptr);
  EXPECT_NE(net.ecu(iss_id).system(), nullptr);
  EXPECT_EQ(net.ecu(iss_id).kernel(), nullptr);

  net.run_until(sim::kSecond);

  // 101 activations (t = 0..1s inclusive at 10ms); the t=1s instance
  // completes 200us past the horizon, so 100 completions -> 100 frames.
  const auto& sent = net.model(model_id).task_stats(0);
  EXPECT_EQ(sent.activations, 101u);
  EXPECT_EQ(sent.completions, 100u);
  EXPECT_EQ(sent.worst_response, 200 * kMicrosecond);
  // Every delivered frame activated the consumer's task...
  EXPECT_EQ(net.model(consumer_id).task_stats(0).activations, 100u);
  // ...but never the sender ECU's own listener (CAN skips the sender).
  EXPECT_EQ(net.model(model_id).task_stats(1).activations, 0u);
  // And the ISS ECU serviced the same 100 frames in its compiled ISR.
  EXPECT_EQ(net.iss(iss_id).read_word(kCount), 100u);
  EXPECT_EQ(net.iss(iss_id).controller().stats().frames_received, 100u);
}

// Shared topology for the bound checks: traffic on a fast source bus
// routed through the gateway onto a slower bus with local competition.
struct PathFixture {
  NetworkBuilder nb;
  BusId src_bus, dst_bus;
  GatewayId gw;
  static constexpr std::uint32_t kRouted = 0x100;
  static constexpr SimTime kLatency = 200 * kMicrosecond;

  PathFixture() {
    src_bus = nb.bus("powertrain", 500'000);
    dst_bus = nb.bus("body", 125'000);
    GatewayConfig gc;
    gc.forwarding_latency = kLatency;
    gc.queue_depth = 8;
    gw = nb.gateway("gw", gc);
    Route r;
    r.from = src_bus;
    r.to = dst_bus;
    r.match = kRouted;
    nb.route(gw, r);
  }

  // The analysis sets mirror exactly the traffic the test generates.
  [[nodiscard]] std::vector<sched::CanMessage> src_set() const {
    return {
        {"hp_local", 0x080, 8, 5 * kMillisecond, 0, 0},
        {"routed", kRouted, 8, 10 * kMillisecond, 0, 0},
        {"lp_local", 0x300, 8, 5 * kMillisecond, 0, 0},
    };
  }
  [[nodiscard]] std::vector<sched::CanMessage> dst_set() const {
    return {
        {"dst_hp", 0x090, 8, 5 * kMillisecond, 0, 0},
        {"routed", kRouted, 8, 10 * kMillisecond, 0, 0},
        {"dst_lp", 0x400, 8, 10 * kMillisecond, 0, 0},
    };
  }

  // Drives the traffic and returns the worst measured end-to-end latency
  // (source queue instant -> delivery on the destination bus).
  SimTime run(Network& net, SimTime horizon) {
    const can::NodeId src = net.bus(src_bus).attach_node("src");
    const can::NodeId src2 = net.bus(src_bus).attach_node("src2");
    const can::NodeId dst = net.bus(dst_bus).attach_node("dst");
    const can::NodeId dst2 = net.bus(dst_bus).attach_node("dst2");
    const auto periodic = [](can::CanBus& bus, can::NodeId node,
                             std::uint32_t id, SimTime period) {
      // Schedule on the bus's own shard queue: traffic generation must
      // live where the bus lives once the network is sharded.
      bus.queue().schedule_every(period, [&bus, node, id] {
        can::CanFrame f;
        f.id = id;
        f.dlc = 8;
        bus.send(node, f);
      });
    };
    periodic(net.bus(src_bus), src, 0x080, 5 * kMillisecond);
    periodic(net.bus(src_bus), src2, kRouted, 10 * kMillisecond);
    periodic(net.bus(src_bus), src, 0x300, 5 * kMillisecond);
    periodic(net.bus(dst_bus), dst, 0x090, 5 * kMillisecond);
    periodic(net.bus(dst_bus), dst2, 0x400, 10 * kMillisecond);

    SimTime worst_e2e = 0;
    std::uint64_t routed_heard = 0;
    net.bus(dst_bus).subscribe(dst, [&](const can::CanFrame& f, SimTime at) {
      if (f.id == kRouted) {
        ++routed_heard;
        // Every forwarded frame carries its source-bus queue instant —
        // including the very first one, queued at t=0 (0 is a valid
        // stamp, not the "unset" sentinel).
        EXPECT_GE(f.timestamp, 0);
        EXPECT_LT(f.timestamp, at);
        worst_e2e = std::max(worst_e2e, at - f.timestamp);
      }
    });
    net.run_until(horizon);
    EXPECT_GT(routed_heard, 0u);
    EXPECT_EQ(net.gateway(gw).direction(src_bus, dst_bus).dropped_overflow,
              0u);
    return worst_e2e;
  }
};

TEST(PathRta, MeasuredEndToEndLatencyWithinBound) {
  PathFixture fx;
  Network net = fx.nb.build();
  const SimTime worst = fx.run(net, 10 * sim::kSecond);

  std::vector<sched::PathHop> hops(2);
  hops[0].messages = fx.src_set();
  hops[0].message = 1;
  hops[0].bitrate_bps = 500'000;
  hops[1].messages = fx.dst_set();
  hops[1].message = 1;
  hops[1].bitrate_bps = 125'000;
  hops[1].gateway_latency = PathFixture::kLatency;
  const sched::PathRtaResult bound = sched::path_rta(hops);

  EXPECT_TRUE(bound.schedulable);
  EXPECT_GT(worst, 0);
  EXPECT_LE(worst, bound.response);
  // The end-to-end bound exceeds what either bus alone could explain.
  EXPECT_GT(bound.response, bound.hop_response[0]);
  EXPECT_EQ(bound.response, bound.hop_response[1]);
  EXPECT_EQ(bound.response, bound.response_fault_free);
}

TEST(PathRta, MeasuredEndToEndLatencyWithinFaultedBound) {
  PathFixture fx;
  Network net = fx.nb.build();

  // Bit-error campaign on the destination bus only, respecting a minimum
  // inter-error gap — exactly the hypothesis Tindell's E(t) term charges.
  constexpr SimTime kTError = 20 * kMillisecond;
  SimTime next_allowed = 5 * kMillisecond;
  std::uint64_t injected = 0;
  net.bus(fx.dst_bus).set_bit_error_model(
      [&](const can::CanFrame&, can::NodeId, SimTime now) {
        if (now >= next_allowed) {
          next_allowed = now + kTError;
          ++injected;
          return 10;  // corrupt bit 10 of the attempt
        }
        return -1;
      });

  const SimTime worst = fx.run(net, 10 * sim::kSecond);
  EXPECT_GT(injected, 0u);

  std::vector<sched::PathHop> hops(2);
  hops[0].messages = fx.src_set();
  hops[0].message = 1;
  hops[0].bitrate_bps = 500'000;
  hops[1].messages = fx.dst_set();
  hops[1].message = 1;
  hops[1].bitrate_bps = 125'000;
  hops[1].gateway_latency = PathFixture::kLatency;
  hops[1].errors = sched::CanErrorModel{kTError};
  const sched::PathRtaResult bound = sched::path_rta(hops);

  EXPECT_LE(worst, bound.response);
  // The fault hypothesis strictly inflates the end-to-end bound.
  EXPECT_GT(bound.response_faulted, bound.response_fault_free);
  EXPECT_EQ(bound.response, bound.response_faulted);
}

TEST(Network, DoubleRunIsBitIdentical) {
  const auto run = [](std::uint64_t& events, std::uint64_t& forwarded,
                      std::uint64_t& iss_count, SimTime& worst_e2e) {
    PathFixture fx;
    can::CanController::Config cc;
    cc.rx_line = kRxLine;
    const EcuId iss_id = fx.nb.ecu(
        fx.dst_bus,
        cpu::profiles::modern_mcu().name("obs").clock_hz(8'000'000)
            .flash_size(16 * 1024),
        counting_program(), cc);
    Network net = fx.nb.build();
    worst_e2e = fx.run(net, 2 * sim::kSecond);
    events = net.simulation().stats().events_executed;
    forwarded = net.gateway(fx.gw).stats().frames_forwarded;
    iss_count = net.iss(iss_id).read_word(kCount);
  };
  std::uint64_t e1, f1, c1, e2, f2, c2;
  SimTime w1, w2;
  run(e1, f1, c1, w1);
  run(e2, f2, c2, w2);
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(w1, w2);
  EXPECT_GT(c1, 0u);
}

}  // namespace
}  // namespace aces::net
