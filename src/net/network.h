// net::NetworkBuilder — declarative whole-vehicle network topologies.
//
// Where SystemBuilder describes one ECU, NetworkBuilder describes one
// vehicle: N CAN buses at independent bit rates, ECUs attached at either
// simulation fidelity through the same ecu() call, and store-and-forward
// gateways bridging the segments — all advanced by one sim::Simulation
// time base, so a 24-ECU three-bus vehicle is driven exactly like a single
// bound System:
//
//   net::NetworkBuilder nb;
//   const net::BusId pt   = nb.bus("powertrain", 500'000);
//   const net::BusId body = nb.bus("body", 125'000);
//   nb.ecu(pt, cpu::profiles::modern_mcu().name("engine"), engine_program);
//   nb.ecu(body, "locks", {{"lock_ctl", 5, 1 * kMillisecond,
//                           20 * kMillisecond}});
//   const net::GatewayId gw = nb.gateway("central", {200 * kMicrosecond, 8});
//   nb.route(gw, {pt, body, 0x0A0});
//   net::Network net = nb.build();
//   net.run_until(5 * sim::kSecond);
//
// The builder is a pure description (copyable, reusable); build()
// materializes buses, ECU nodes and gateways in declaration order, which
// fixes CAN node indices and the co-simulation round-robin order — the
// whole network is deterministic, double runs are bit-identical.
//
// Analysis: the end-to-end latency of routed traffic is bounded by
// sched::path_rta (per-bus can_rta composed across gateway hops); measured
// end-to-end latency comes from CanFrame::timestamp, which send_every and
// model-task transmission stamp at the queue instant and gateways preserve.
#ifndef ACES_NET_NETWORK_H
#define ACES_NET_NETWORK_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/gateway.h"
#include "net/node.h"
#include "net/supervisor.h"
#include "sim/sharded.h"
#include "support/check.h"

namespace aces::net {

using EcuId = int;
using GatewayId = int;

class Network;

class NetworkBuilder {
 public:
  NetworkBuilder() = default;

  // Co-simulation quantum for the built network's time base.
  NetworkBuilder& quantum(sim::SimTime q) {
    quantum_ = q;
    return *this;
  }

  // Sharding policy. build() partitions the topology into gateway-bounded
  // shards: each bus/fabric and its attached ECUs live on one sim::Shard,
  // gateways are the only cross-shard edges, and the minimum cross-shard
  // forwarding latency becomes the synchronization lookahead. Buses
  // bridged at zero latency (or by a direction with mixed per-route
  // latencies, where the egress admission replay would lose the serial
  // order) are merged into one shard. 0 (default) = as many shards as the
  // topology allows; 1 = single shard, byte-for-byte the pre-sharding
  // scheduler. No other value is accepted.
  NetworkBuilder& shards(unsigned n) {
    ACES_CHECK_MSG(n <= 1, "NetworkBuilder::shards takes 0 (partition the "
                           "topology) or 1 (single shard)");
    shards_ = n;
    return *this;
  }

  // Worker threads for the built network's epoch fan-out
  // (ShardedSimulation::set_threads): 0 (default) = min(hardware
  // concurrency, shard count). Thread count never changes results.
  NetworkBuilder& threads(unsigned n) {
    threads_ = n;
    return *this;
  }

  // Declares a CAN bus. Bit rates are independent per bus; a non-zero
  // `data_bitrate_bps` (>= the arbitration rate) makes the bus CAN FD
  // capable — FD frames switch to it for their data phase.
  BusId bus(std::string name, std::uint32_t bitrate_bps,
            std::uint32_t data_bitrate_bps = 0);

  // Declares a FlexRay fabric segment. It shares the BusId space with CAN
  // buses (gateway routes reference either kind), but carries FlexRay
  // traffic: a static TDMA segment (optionally assigned via
  // flexray_static) and a minislot dynamic segment that translating
  // gateway routes read and write. ECUs cannot attach to it — cross into
  // it through a gateway, as in a real zonal architecture.
  BusId flexray(std::string name, FlexrayFabricConfig config);
  // Installs the static schedule replayed by `id` (checked feasible at
  // build). At most once per fabric.
  NetworkBuilder& flexray_static(BusId id,
                                 std::vector<sched::FlexrayFrame> frames);

  // ISS fidelity: a cycle-accurate ECU described by `system` (name, clock
  // and memory map come from the SystemBuilder; the CAN controller and the
  // GuestProgram's interrupt controller are added automatically).
  EcuId ecu(BusId bus, cpu::SystemBuilder system, GuestProgram program,
            can::CanController::Config controller = {});

  // Kernel-model fidelity: an OSEK-like workload model with optional
  // per-task transmission and RX-driven activation.
  EcuId ecu(BusId bus, std::string name, std::vector<ModelTask> tasks,
            sim::SimTime context_switch_cost = 0);

  GatewayId gateway(std::string name, GatewayConfig config = {});
  NetworkBuilder& route(GatewayId gateway, Route route);

  // Translating routes (see net/gateway.h). packed_route emits onto a CAN
  // bus (classic or FD per the route's egress descriptor);
  // packed_route_flexray registers a dynamic frame named `dyn_name` under
  // `dyn_slot_id` on the egress fabric at build time (owned by the
  // gateway's node there; `dyn_max_bytes` 0 = the packing-table extent)
  // and emits onto it. unpack_route slices a CAN/CAN FD ingress frame;
  // unpack_route_flexray matches the fabric's dynamic frame under
  // `match_slot_id` — resolvable regardless of which gateway registers it,
  // in any declaration order.
  NetworkBuilder& packed_route(GatewayId gateway, PackedRoute route);
  NetworkBuilder& packed_route_flexray(GatewayId gateway, PackedRoute route,
                                       std::string dyn_name,
                                       unsigned dyn_slot_id,
                                       unsigned dyn_max_bytes = 0);
  NetworkBuilder& unpack_route(GatewayId gateway, UnpackRoute route);
  NetworkBuilder& unpack_route_flexray(GatewayId gateway, UnpackRoute route,
                                       unsigned match_slot_id);

  // Materializes the vehicle (guaranteed copy elision: constructed in
  // place at the call site, never moved — bindings and bus references
  // stay valid for the Network's lifetime).
  [[nodiscard]] Network build() const;

 private:
  friend class Network;

  struct BusSpec {
    enum class Kind { kCan, kFlexray };
    Kind kind = Kind::kCan;
    std::string name;
    std::uint32_t bitrate_bps = 0;       // CAN arbitration rate
    std::uint32_t data_bitrate_bps = 0;  // CAN FD data rate; 0 = classic
    FlexrayFabricConfig flexray;
    std::vector<sched::FlexrayFrame> static_frames;
    bool have_static = false;
  };
  struct IssSpec {
    BusId bus = -1;
    cpu::SystemBuilder system;
    GuestProgram program;
    can::CanController::Config controller;
  };
  struct ModelSpec {
    BusId bus = -1;
    std::string name;
    std::vector<ModelTask> tasks;
    sim::SimTime switch_cost = 0;
  };
  struct EcuOrder {  // declaration order across both fidelities
    bool iss = false;
    std::size_t index = 0;
  };
  struct PackedRouteSpec {
    PackedRoute route;
    unsigned dyn_slot_id = 0;  // 0 = CAN egress
    unsigned dyn_max_bytes = 0;
    std::string dyn_name;
  };
  struct UnpackRouteSpec {
    UnpackRoute route;
    unsigned match_slot_id = 0;  // 0 = CAN ingress (route.match_id)
  };
  struct GatewaySpec {
    std::string name;
    GatewayConfig config;
    std::vector<Route> routes;
    std::vector<PackedRouteSpec> packed;
    std::vector<UnpackRouteSpec> unpack;
  };

  void check_bus(BusId id) const;
  void check_can(BusId id) const;
  void check_flexray(BusId id) const;
  GatewaySpec& gateway_spec(GatewayId id);

  sim::SimTime quantum_ = 50 * sim::kMicrosecond;
  unsigned shards_ = 0;
  unsigned threads_ = 0;
  std::vector<BusSpec> buses_;
  std::vector<EcuOrder> order_;
  std::vector<IssSpec> iss_;
  std::vector<ModelSpec> models_;
  std::vector<GatewaySpec> gateways_;
};

// The instantiated vehicle network. Owns the simulation, the buses, every
// ECU node and every gateway; pinned in memory (bindings and subscriptions
// hold references into the object).
class Network {
 public:
  explicit Network(const NetworkBuilder& builder);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] sim::ShardedSimulation& simulation() noexcept { return sim_; }
  [[nodiscard]] sim::SimTime now() const { return sim_.now(); }

  // The shard-local scheduler a segment lives on: the place to schedule
  // events that touch that bus (a single-shard network has exactly one).
  [[nodiscard]] sim::Simulation& shard(BusId bus) {
    return *shard_of_bus_.at(static_cast<std::size_t>(bus));
  }
  [[nodiscard]] std::size_t shard_count() const {
    return sim_.shard_count();
  }
  [[nodiscard]] sim::SimTime lookahead() const { return sim_.lookahead(); }

  // Segment count (CAN buses + FlexRay fabrics share the BusId space).
  [[nodiscard]] std::size_t bus_count() const { return buses_.size(); }
  [[nodiscard]] std::size_t ecu_count() const { return ecus_.size(); }
  [[nodiscard]] bool is_can(BusId id) const {
    return buses_[static_cast<std::size_t>(id)] != nullptr;
  }
  [[nodiscard]] can::CanBus& bus(BusId id);
  [[nodiscard]] FlexrayFabric& flexray(BusId id);
  [[nodiscard]] const std::string& bus_name(BusId id) const {
    return bus_names_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] EcuNode& ecu(EcuId id) {
    return *ecus_[static_cast<std::size_t>(id)];
  }
  // Typed accessors (checked): the fidelity-specific surfaces.
  [[nodiscard]] IssEcuNode& iss(EcuId id);
  [[nodiscard]] ModelEcuNode& model(EcuId id);
  [[nodiscard]] std::size_t gateway_count() const { return gateways_.size(); }
  [[nodiscard]] GatewayNode& gateway(GatewayId id) {
    return *gateways_[static_cast<std::size_t>(id)];
  }

  // Adds an alive-supervision watchdog node on CAN bus `bus` (post-build:
  // supervisors are runtime dependability infrastructure, configured
  // against the materialized ECUs/gateways). The returned reference stays
  // valid for the Network's lifetime.
  SupervisorNode& add_supervisor(BusId bus, std::string name);
  [[nodiscard]] std::size_t supervisor_count() const {
    return supervisors_.size();
  }
  [[nodiscard]] SupervisorNode& supervisor(std::size_t k) {
    return *supervisors_[k];
  }

  void run_until(sim::SimTime horizon) { sim_.run_until(horizon); }
  void run_for(sim::SimTime delta) { sim_.run_for(delta); }

  // Periodic application traffic from `ecu`'s bus node: first send now,
  // then every `period`. `mutate` (optional) edits the frame before each
  // send (payload counters, toggles); each copy is stamped with its queue
  // instant for end-to-end measurement.
  void send_every(EcuId ecu, sim::SimTime period, can::CanFrame frame,
                  std::function<void(can::CanFrame&)> mutate = nullptr);
  // One-shot convenience with the same stamping.
  void send(EcuId ecu, can::CanFrame frame);

 private:
  sim::ShardedSimulation sim_;
  // Parallel, indexed by BusId: the shard each segment was assigned to.
  std::vector<sim::Simulation*> shard_of_bus_;
  std::vector<std::string> bus_names_;
  // Parallel, indexed by BusId: exactly one entry is non-null per id.
  std::vector<std::unique_ptr<can::CanBus>> buses_;
  std::vector<std::unique_ptr<FlexrayFabric>> flexrays_;
  std::vector<std::unique_ptr<EcuNode>> ecus_;
  std::vector<std::unique_ptr<GatewayNode>> gateways_;
  std::vector<std::unique_ptr<SupervisorNode>> supervisors_;
};

inline Network NetworkBuilder::build() const { return Network(*this); }

}  // namespace aces::net

#endif  // ACES_NET_NETWORK_H
