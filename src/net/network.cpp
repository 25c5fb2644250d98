#include "net/network.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "support/check.h"

namespace aces::net {

namespace {

// Union-find over BusIds for the partitioning pass.
struct UnionFind {
  explicit UnionFind(std::size_t n) : parent(n) {
    for (std::size_t i = 0; i < n; ++i) {
      parent[i] = i;
    }
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) {
      return false;
    }
    // Smaller root wins: component representatives stay deterministic.
    if (b < a) {
      std::swap(a, b);
    }
    parent[b] = a;
    return true;
  }
  std::vector<std::size_t> parent;
};

}  // namespace

void NetworkBuilder::check_bus(BusId id) const {
  ACES_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) < buses_.size(),
                 "unknown bus id (declare buses with NetworkBuilder::bus "
                 "first)");
}

void NetworkBuilder::check_can(BusId id) const {
  check_bus(id);
  ACES_CHECK_MSG(buses_[static_cast<std::size_t>(id)].kind ==
                     BusSpec::Kind::kCan,
                 "this segment is a FlexRay fabric, not a CAN bus");
}

void NetworkBuilder::check_flexray(BusId id) const {
  check_bus(id);
  ACES_CHECK_MSG(buses_[static_cast<std::size_t>(id)].kind ==
                     BusSpec::Kind::kFlexray,
                 "this segment is a CAN bus, not a FlexRay fabric");
}

NetworkBuilder::GatewaySpec& NetworkBuilder::gateway_spec(GatewayId id) {
  ACES_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) < gateways_.size(),
                 "unknown gateway id");
  return gateways_[static_cast<std::size_t>(id)];
}

BusId NetworkBuilder::bus(std::string name, std::uint32_t bitrate_bps,
                          std::uint32_t data_bitrate_bps) {
  ACES_CHECK(bitrate_bps > 0);
  BusSpec spec;
  spec.name = std::move(name);
  spec.bitrate_bps = bitrate_bps;
  spec.data_bitrate_bps = data_bitrate_bps;
  buses_.push_back(std::move(spec));
  return static_cast<BusId>(buses_.size() - 1);
}

BusId NetworkBuilder::flexray(std::string name, FlexrayFabricConfig config) {
  BusSpec spec;
  spec.kind = BusSpec::Kind::kFlexray;
  spec.name = std::move(name);
  spec.flexray = config;
  buses_.push_back(std::move(spec));
  return static_cast<BusId>(buses_.size() - 1);
}

NetworkBuilder& NetworkBuilder::flexray_static(
    BusId id, std::vector<sched::FlexrayFrame> frames) {
  check_flexray(id);
  BusSpec& spec = buses_[static_cast<std::size_t>(id)];
  ACES_CHECK_MSG(!spec.have_static,
                 "fabric already has a static schedule assigned");
  spec.static_frames = std::move(frames);
  spec.have_static = true;
  return *this;
}

EcuId NetworkBuilder::ecu(BusId bus, cpu::SystemBuilder system,
                          GuestProgram program,
                          can::CanController::Config controller) {
  check_can(bus);
  ACES_CHECK_MSG(system.clock_hz() > 0,
                 "ISS ECU '" + system.name() +
                     "' needs a clock rate (SystemBuilder::clock_hz or a "
                     "profile default)");
  IssSpec spec;
  spec.bus = bus;
  spec.system = std::move(system);
  spec.program = std::move(program);
  spec.controller = controller;
  iss_.push_back(std::move(spec));
  order_.push_back(EcuOrder{true, iss_.size() - 1});
  return static_cast<EcuId>(order_.size() - 1);
}

EcuId NetworkBuilder::ecu(BusId bus, std::string name,
                          std::vector<ModelTask> tasks,
                          sim::SimTime context_switch_cost) {
  check_can(bus);
  ModelSpec spec;
  spec.bus = bus;
  spec.name = std::move(name);
  spec.tasks = std::move(tasks);
  spec.switch_cost = context_switch_cost;
  models_.push_back(std::move(spec));
  order_.push_back(EcuOrder{false, models_.size() - 1});
  return static_cast<EcuId>(order_.size() - 1);
}

GatewayId NetworkBuilder::gateway(std::string name, GatewayConfig config) {
  GatewaySpec spec;
  spec.name = std::move(name);
  spec.config = config;
  gateways_.push_back(std::move(spec));
  return static_cast<GatewayId>(gateways_.size() - 1);
}

NetworkBuilder& NetworkBuilder::route(GatewayId gateway, Route route) {
  check_can(route.from);
  check_can(route.to);
  gateway_spec(gateway).routes.push_back(route);
  return *this;
}

NetworkBuilder& NetworkBuilder::packed_route(GatewayId gateway,
                                             PackedRoute route) {
  check_can(route.from);
  check_can(route.to);
  ACES_CHECK_MSG(route.egress_dyn < 0,
                 "use packed_route_flexray for FlexRay egress (the dynamic "
                 "frame is registered at build time)");
  PackedRouteSpec spec;
  spec.route = std::move(route);
  gateway_spec(gateway).packed.push_back(std::move(spec));
  return *this;
}

NetworkBuilder& NetworkBuilder::packed_route_flexray(GatewayId gateway,
                                                     PackedRoute route,
                                                     std::string dyn_name,
                                                     unsigned dyn_slot_id,
                                                     unsigned dyn_max_bytes) {
  check_can(route.from);
  check_flexray(route.to);
  ACES_CHECK_MSG(dyn_slot_id >= 1, "dynamic slot ids start at 1");
  PackedRouteSpec spec;
  spec.route = std::move(route);
  spec.dyn_slot_id = dyn_slot_id;
  spec.dyn_max_bytes = dyn_max_bytes;
  spec.dyn_name = std::move(dyn_name);
  gateway_spec(gateway).packed.push_back(std::move(spec));
  return *this;
}

NetworkBuilder& NetworkBuilder::unpack_route(GatewayId gateway,
                                             UnpackRoute route) {
  check_can(route.from);
  check_can(route.to);
  ACES_CHECK_MSG(route.match_dyn < 0,
                 "use unpack_route_flexray for FlexRay ingress (matched by "
                 "dynamic slot id)");
  UnpackRouteSpec spec;
  spec.route = std::move(route);
  gateway_spec(gateway).unpack.push_back(std::move(spec));
  return *this;
}

NetworkBuilder& NetworkBuilder::unpack_route_flexray(GatewayId gateway,
                                                     UnpackRoute route,
                                                     unsigned match_slot_id) {
  check_flexray(route.from);
  check_can(route.to);
  ACES_CHECK_MSG(match_slot_id >= 1, "dynamic slot ids start at 1");
  UnpackRouteSpec spec;
  spec.route = std::move(route);
  spec.match_slot_id = match_slot_id;
  gateway_spec(gateway).unpack.push_back(std::move(spec));
  return *this;
}

Network::Network(const NetworkBuilder& b) : sim_(b.quantum_) {
  // ----- partitioning pass ---------------------------------------------------
  // Each bus/fabric (with its attached ECUs) is assigned to one shard;
  // gateway routes are the only edges between segments. A directed edge's
  // latency is its route's effective forwarding latency; the minimum over
  // all cross-shard edges becomes the synchronization lookahead. Merged
  // into one shard are: everything, when the builder pinned shards(1);
  // zero-latency edges (no lookahead to exploit); and directions mixing
  // several latencies (the egress-side admission replay requires frames
  // of a direction to arrive in ingress order, which uniform latency
  // guarantees). All of it is a pure function of the builder description,
  // so shard assignment — and therefore every simulation result — is
  // deterministic.
  //
  // One walk over a gateway's plain, packed and unpack routes yields each
  // route's (from, to, effective latency); the partitioning pass and the
  // gateway join sets below both use it.
  const auto each_route = [](const NetworkBuilder::GatewaySpec& spec,
                             const auto& visit) {
    for (const Route& r : spec.routes) {
      visit(r.from, r.to, spec.config.forwarding_latency);
    }
    for (const NetworkBuilder::PackedRouteSpec& p : spec.packed) {
      visit(p.route.from, p.route.to, spec.config.latency_of(p.route.latency));
    }
    for (const NetworkBuilder::UnpackRouteSpec& u : spec.unpack) {
      visit(u.route.from, u.route.to, spec.config.latency_of(u.route.latency));
    }
  };
  const std::size_t nbuses = b.buses_.size();
  UnionFind uf(nbuses);
  std::map<std::pair<BusId, BusId>, std::set<sim::SimTime>> edge_lat;
  for (const NetworkBuilder::GatewaySpec& spec : b.gateways_) {
    each_route(spec, [&](BusId from, BusId to, sim::SimTime latency) {
      edge_lat[{from, to}].insert(latency);
    });
  }
  if (b.shards_ == 1) {
    for (std::size_t i = 1; i < nbuses; ++i) {
      uf.unite(0, i);
    }
  } else {
    for (const auto& [edge, lats] : edge_lat) {
      if (*lats.begin() <= 0 || lats.size() > 1) {
        uf.unite(static_cast<std::size_t>(edge.first),
                 static_cast<std::size_t>(edge.second));
      }
    }
  }
  // Lookahead = min effective latency over the edges still crossing.
  sim::SimTime lookahead = sim::kNever;
  for (const auto& [edge, lats] : edge_lat) {
    if (uf.find(static_cast<std::size_t>(edge.first)) !=
        uf.find(static_cast<std::size_t>(edge.second))) {
      lookahead = std::min(lookahead, *lats.begin());
    }
  }
  // Shard indices in order of each component's smallest BusId.
  std::map<std::size_t, sim::Simulation*> shard_of_root;
  shard_of_bus_.resize(nbuses, nullptr);
  for (std::size_t i = 0; i < nbuses; ++i) {
    const std::size_t root = uf.find(i);
    auto it = shard_of_root.find(root);
    if (it == shard_of_root.end()) {
      it = shard_of_root.emplace(root, &sim_.add_shard()).first;
    }
    shard_of_bus_[i] = it->second;
  }
  if (sim_.shard_count() == 0) {
    sim_.add_shard();  // degenerate bus-less network still has a timeline
  }
  if (lookahead != sim::kNever) {
    sim_.set_lookahead(lookahead);
  }
  sim_.set_threads(b.threads_);

  // Segments next: ECUs and gateways attach nodes in declaration order,
  // so node indices — and with them arbitration tie-breaking and delivery
  // order — are fixed by the description alone.
  for (std::size_t i = 0; i < nbuses; ++i) {
    const NetworkBuilder::BusSpec& spec = b.buses_[i];
    sim::Simulation& shard = *shard_of_bus_[i];
    bus_names_.push_back(spec.name);
    if (spec.kind == NetworkBuilder::BusSpec::Kind::kCan) {
      buses_.push_back(std::make_unique<can::CanBus>(
          shard.queue(), spec.bitrate_bps, spec.data_bitrate_bps));
      flexrays_.push_back(nullptr);
    } else {
      buses_.push_back(nullptr);
      auto fabric = std::make_unique<FlexrayFabric>(shard, spec.flexray);
      if (spec.have_static) {
        fabric->assign_static(spec.static_frames);
      }
      fabric->start();  // communication cycles run from t = 0
      flexrays_.push_back(std::move(fabric));
    }
  }
  for (const NetworkBuilder::EcuOrder& e : b.order_) {
    if (e.iss) {
      const NetworkBuilder::IssSpec& spec = b.iss_[e.index];
      ecus_.push_back(std::make_unique<IssEcuNode>(
          *shard_of_bus_[static_cast<std::size_t>(spec.bus)],
          *buses_[static_cast<std::size_t>(spec.bus)], spec.bus,
          spec.system, spec.program, spec.controller));
    } else {
      const NetworkBuilder::ModelSpec& spec = b.models_[e.index];
      ecus_.push_back(std::make_unique<ModelEcuNode>(
          *shard_of_bus_[static_cast<std::size_t>(spec.bus)],
          *buses_[static_cast<std::size_t>(spec.bus)], spec.bus,
          spec.name, spec.tasks, spec.switch_cost));
    }
  }
  // Gateways in two passes: the first joins segments, registers the
  // dynamic frames packed routes emit and installs plain + packed routes;
  // the second resolves unpack routes, so a gateway may unpack a dynamic
  // frame registered by a gateway declared later.
  for (const NetworkBuilder::GatewaySpec& spec : b.gateways_) {
    auto gw = std::make_unique<GatewayNode>(spec.name, spec.config);
    // Join every segment the routing table references, in id order.
    std::set<BusId> joined;
    each_route(spec, [&](BusId from, BusId to, sim::SimTime) {
      joined.insert(from);
      joined.insert(to);
    });
    for (const BusId id : joined) {
      sim::Simulation& shard = *shard_of_bus_[static_cast<std::size_t>(id)];
      if (is_can(id)) {
        gw->join(id, *buses_[static_cast<std::size_t>(id)], shard);
      } else {
        gw->join_flexray(id, *flexrays_[static_cast<std::size_t>(id)], shard);
      }
    }
    for (const Route& r : spec.routes) {
      gw->add_route(r);
    }
    for (const NetworkBuilder::PackedRouteSpec& p : spec.packed) {
      PackedRoute r = p.route;
      if (p.dyn_slot_id > 0) {
        unsigned max_bytes = p.dyn_max_bytes;
        if (max_bytes == 0) {  // default: the packing-table extent
          for (const PackSlot& slot : r.table) {
            max_bytes = std::max(max_bytes, slot.offset + slot.bytes);
          }
        }
        r.egress_dyn = flexray(r.to).add_dynamic_frame(
            gw->flexray_node_on(r.to), p.dyn_name, p.dyn_slot_id, max_bytes);
      }
      gw->add_packed_route(r);
    }
    gateways_.push_back(std::move(gw));
  }
  for (std::size_t g = 0; g < b.gateways_.size(); ++g) {
    for (const NetworkBuilder::UnpackRouteSpec& u : b.gateways_[g].unpack) {
      UnpackRoute r = u.route;
      if (u.match_slot_id > 0) {
        r.match_dyn = flexray(r.from).dyn_by_slot(u.match_slot_id);
      }
      gateways_[g]->add_unpack_route(r);
    }
  }
}

can::CanBus& Network::bus(BusId id) {
  ACES_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) < buses_.size(),
                 "unknown bus id");
  ACES_CHECK_MSG(is_can(id), "this segment is a FlexRay fabric (use "
                             "Network::flexray)");
  return *buses_[static_cast<std::size_t>(id)];
}

FlexrayFabric& Network::flexray(BusId id) {
  ACES_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) < buses_.size(),
                 "unknown bus id");
  ACES_CHECK_MSG(!is_can(id), "this segment is a CAN bus (use "
                              "Network::bus)");
  return *flexrays_[static_cast<std::size_t>(id)];
}

IssEcuNode& Network::iss(EcuId id) {
  auto* node = dynamic_cast<IssEcuNode*>(&ecu(id));
  ACES_CHECK_MSG(node != nullptr, "ECU is not ISS fidelity");
  return *node;
}

ModelEcuNode& Network::model(EcuId id) {
  auto* node = dynamic_cast<ModelEcuNode*>(&ecu(id));
  ACES_CHECK_MSG(node != nullptr, "ECU is not kernel-model fidelity");
  return *node;
}

void Network::send_every(EcuId ecu_id, sim::SimTime period,
                         can::CanFrame frame,
                         std::function<void(can::CanFrame&)> mutate) {
  EcuNode& node = ecu(ecu_id);
  can::CanBus& b = bus(node.bus());
  const can::NodeId n = node.can_node();
  sim::Simulation& s = shard(node.bus());
  s.schedule_every(
      period, [&s, &b, n, frame, mutate = std::move(mutate)]() mutable {
        if (mutate) {
          mutate(frame);
        }
        can::CanFrame f = frame;
        f.timestamp = s.now();
        b.send(n, f);
      });
}

void Network::send(EcuId ecu_id, can::CanFrame frame) {
  EcuNode& node = ecu(ecu_id);
  frame.timestamp = shard(node.bus()).now();
  bus(node.bus()).send(node.can_node(), frame);
}

SupervisorNode& Network::add_supervisor(BusId bus_id, std::string name) {
  supervisors_.push_back(std::make_unique<SupervisorNode>(
      shard(bus_id), bus(bus_id), bus_id, std::move(name)));
  return *supervisors_.back();
}

}  // namespace aces::net
