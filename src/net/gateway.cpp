#include "net/gateway.h"

#include <algorithm>

#include "support/check.h"

namespace aces::net {

using sim::SimTime;

GatewayNode::GatewayNode(std::string name, GatewayConfig config)
    : name_(std::move(name)), config_(config) {
  ACES_CHECK_MSG(config_.queue_depth > 0,
                 "gateway queue_depth must be >= 1");
  ACES_CHECK_MSG(config_.forwarding_latency >= 0,
                 "gateway forwarding latency cannot be negative");
}

void GatewayNode::join(BusId id, can::CanBus& bus, sim::Simulation& shard) {
  ACES_CHECK_MSG(ports_.find(id) == ports_.end(),
                 "gateway '" + name_ + "' already joined this bus");
  Port port;
  port.bus = &bus;
  port.node = bus.attach_node(name_);
  port.shard = &shard;
  ports_[id] = port;
  bus.subscribe(port.node,
                [this, id](const can::CanFrame& f, SimTime at) {
                  on_rx(id, f, at);
                });
  bus.subscribe_tx(port.node,
                   [this, id](const can::CanFrame& f, SimTime at) {
                     complete(id, can::arbitration_key(f), at);
                   });
}

void GatewayNode::join_flexray(BusId id, FlexrayFabric& fabric,
                               sim::Simulation& shard) {
  ACES_CHECK_MSG(ports_.find(id) == ports_.end(),
                 "gateway '" + name_ + "' already joined this bus");
  Port port;
  port.flexray = &fabric;
  port.node = fabric.attach_node(name_);
  port.shard = &shard;
  ports_[id] = port;
  fabric.subscribe(port.node,
                   [this, id](const FlexrayFabric::DynFrameInfo& info,
                              const FlexrayFabric::DynPayload& payload,
                              SimTime at) {
                     on_flexray_rx(id, info, payload, at);
                   });
  fabric.subscribe_tx(port.node,
                      [this, id](const FlexrayFabric::DynFrameInfo& info,
                                 const FlexrayFabric::DynPayload&,
                                 SimTime at) {
                        complete(id, info.slot_id, at);
                      });
}

const GatewayNode::Port& GatewayNode::port_of(BusId id) const {
  const auto it = ports_.find(id);
  ACES_CHECK_MSG(it != ports_.end(),
                 "gateway '" + name_ + "' is not on this bus");
  return it->second;
}

void GatewayNode::add_route(const Route& route) {
  ACES_CHECK_MSG(route.from != route.to,
                 "gateway route cannot loop a bus onto itself");
  const Port& in = port_of(route.from);
  const Port& out = port_of(route.to);
  ACES_CHECK_MSG(in.bus != nullptr && out.bus != nullptr,
                 "plain routes connect CAN ports (use packed/unpack routes "
                 "to cross into FlexRay)");
  if (route.fd && *route.fd) {
    ACES_CHECK_MSG(out.bus->fd_enabled(),
                   "route promotes to CAN FD but the egress bus has no "
                   "data bit rate");
  }
  routes_.push_back(route);
  // Pre-create: no map mutation at runtime.
  (void)dir_state(route.from, route.to);
}

void GatewayNode::add_packed_route(const PackedRoute& route) {
  ACES_CHECK_MSG(route.from != route.to,
                 "gateway route cannot loop a bus onto itself");
  const Port& in = port_of(route.from);
  const Port& out = port_of(route.to);
  ACES_CHECK_MSG(in.bus != nullptr,
                 "packed routes aggregate CAN ingress frames");
  ACES_CHECK_MSG(!route.table.empty(), "packed route needs a packing table");
  unsigned extent = 0;
  bool trigger_in_table = false;
  for (const PackSlot& slot : route.table) {
    ACES_CHECK_MSG(slot.bytes >= 1, "packing slot cannot be empty");
    ACES_CHECK_MSG(slot.offset + slot.bytes <= FlexrayFabric::kMaxPayload,
                   "packing slot exceeds the 64-byte packing buffer");
    extent = std::max(extent, slot.offset + slot.bytes);
    trigger_in_table = trigger_in_table || slot.src_id == route.trigger_id;
  }
  ACES_CHECK_MSG(trigger_in_table,
                 "the trigger id must be one of the packing table's ids");
  PackedRoute stored = route;
  if (route.egress_dyn >= 0) {
    ACES_CHECK_MSG(out.flexray != nullptr,
                   "egress_dyn set but the egress port is not FlexRay");
    const FlexrayFabric::DynFrameInfo& info =
        out.flexray->dyn_info(route.egress_dyn);
    ACES_CHECK_MSG(info.node == out.node,
                   "the packed route's dynamic frame must be owned by the "
                   "gateway's node on the egress fabric");
    if (stored.egress_bytes == 0) {
      stored.egress_bytes = extent;
    }
    ACES_CHECK_MSG(stored.egress_bytes >= extent,
                   "FlexRay egress payload smaller than the packing table");
    ACES_CHECK_MSG(stored.egress_bytes <= info.max_bytes,
                   "FlexRay egress payload exceeds the registered ceiling");
  } else {
    ACES_CHECK_MSG(out.bus != nullptr,
                   "packed route egress port is neither CAN nor FlexRay");
    const unsigned payload =
        route.egress_fd ? can::fd_payload_bytes(route.egress_dlc)
                        : route.egress_dlc;
    ACES_CHECK_MSG(!route.egress_fd || out.bus->fd_enabled(),
                   "packed route emits CAN FD but the egress bus has no "
                   "data bit rate");
    ACES_CHECK_MSG(route.egress_fd || route.egress_dlc <= 8,
                   "classic packed egress is limited to dlc 0..8");
    ACES_CHECK_MSG(payload >= extent,
                   "packed egress frame smaller than the packing table");
  }
  packed_routes_.push_back(std::move(stored));
  pack_state_.emplace_back();
  // Pre-create: no map mutation at runtime.
  (void)dir_state(route.from, route.to);
}

void GatewayNode::add_unpack_route(const UnpackRoute& route) {
  ACES_CHECK_MSG(route.from != route.to,
                 "gateway route cannot loop a bus onto itself");
  const Port& in = port_of(route.from);
  const Port& out = port_of(route.to);
  ACES_CHECK_MSG(out.bus != nullptr,
                 "unpack routes emit classic CAN frames");
  if (in.flexray != nullptr) {
    ACES_CHECK_MSG(route.match_dyn >= 0,
                   "FlexRay ingress unpack route needs match_dyn");
    const FlexrayFabric::DynFrameInfo& info =
        in.flexray->dyn_info(route.match_dyn);
    ACES_CHECK_MSG(info.node != in.node,
                   "the gateway never receives its own dynamic frames");
  } else {
    ACES_CHECK_MSG(route.match_dyn < 0,
                   "match_dyn is only meaningful on a FlexRay ingress port");
  }
  ACES_CHECK_MSG(!route.table.empty(), "unpack route needs a slicing table");
  for (const UnpackSlot& slot : route.table) {
    ACES_CHECK_MSG(slot.dlc >= 1 && slot.dlc <= 8,
                   "unpacked frames are classic CAN (dlc 1..8)");
    ACES_CHECK_MSG(slot.offset + slot.dlc <= FlexrayFabric::kMaxPayload,
                   "unpack slice exceeds the 64-byte payload");
  }
  unpack_routes_.push_back(route);
  unpack_stats_.emplace_back();
  // Pre-create: no map mutation at runtime.
  (void)dir_state(route.from, route.to);
}

void GatewayNode::set_route_enabled(std::size_t route, bool enabled) {
  ACES_CHECK_MSG(route < routes_.size(), "unknown gateway route");
  // The enabled flag is read by on_rx on the route's ingress shard; apply
  // the toggle there (immediate when called from that shard or outside a
  // run, next epoch boundary otherwise — the supervision-latency skew is
  // bounded by one epoch and deterministic).
  sim::run_on(*ports_.at(routes_[route].from).shard,
              [this, route, enabled] { routes_[route].enabled = enabled; });
}

can::NodeId GatewayNode::node_on(BusId bus) const { return port_of(bus).node; }

FlexrayFabric::NodeId GatewayNode::flexray_node_on(BusId bus) const {
  const Port& port = port_of(bus);
  ACES_CHECK_MSG(port.flexray != nullptr,
                 "gateway '" + name_ + "' has no FlexRay port on this bus");
  return port.node;
}

GatewayNode::DirectionStats GatewayNode::direction(BusId from,
                                                   BusId to) const {
  const auto it = directions_.find({from, to});
  if (it == directions_.end()) {
    return DirectionStats{};
  }
  DirectionStats d = it->second.stats;
  // Unreplayed egress completions have already left the gateway on the
  // wire — report the true in-flight count.
  d.queued -= static_cast<unsigned>(it->second.pending_release.size());
  return d;
}

GatewayNode::Stats GatewayNode::stats() const {
  Stats s;
  for (const auto& [key, st] : directions_) {
    s.frames_forwarded += st.stats.forwarded;
    s.frames_delivered += st.stats.delivered;
    s.frames_dropped += st.stats.dropped_overflow + st.stats.dropped_translation;
  }
  return s;
}

const GatewayNode::TranslationStats& GatewayNode::packed_stats(
    std::size_t route) const {
  ACES_CHECK_MSG(route < pack_state_.size(), "unknown packed route");
  return pack_state_[route].stats;
}

const GatewayNode::TranslationStats& GatewayNode::unpack_stats(
    std::size_t route) const {
  ACES_CHECK_MSG(route < unpack_stats_.size(), "unknown unpack route");
  return unpack_stats_[route];
}

bool GatewayNode::translate_format(const Route& route,
                                   can::CanFrame& out) const {
  if (route.fd) {
    if (*route.fd && !out.fd) {
      if (out.rtr) {
        return false;  // CAN FD has no remote frames
      }
      out.fd = true;
    } else if (!*route.fd && out.fd) {
      const unsigned payload = can::fd_payload_bytes(out.dlc);
      if (payload > 8) {
        return false;  // does not fit a classic frame
      }
      out.dlc = payload;  // DLC codes 0..8 are their own byte counts
      out.fd = false;
    }
  }
  if (out.fd && route.brs) {
    out.brs = *route.brs;
  }
  return true;
}

void GatewayNode::emit_drop(BusId from, BusId to, std::uint32_t egress_id,
                            DropReason reason, SimTime at) {
  for (const DropHandler& h : drop_handlers_) {
    h(from, to, egress_id, reason, at);
  }
}

bool GatewayNode::admit(BusId to, const Transit& t,
                        std::uint32_t egress_id) {
  DirectionState& st = dir_state(t.from, to);
  DirectionStats& d = st.stats;
  // Cross-shard directions decide admission on the egress shard (at
  // ingress_at + latency) but must reproduce the serial ingress-time
  // decision bit for bit: every egress-wire completion stamped at or
  // before this frame's ingress instant freed its slot first in the
  // serial interleaving, so replay those releases before judging the
  // queue. Same-shard directions keep the backlog empty and fall straight
  // through to the historical path.
  while (!st.pending_release.empty() &&
         st.pending_release.front() <= t.ingress_at) {
    st.pending_release.pop_front();
    ACES_CHECK(d.queued > 0);
    --d.queued;
  }
  if (d.queued >= config_.queue_depth) {
    // Bounded store-and-forward buffer: overload drops, it never queues
    // unboundedly — and the drop is visible to the analysis story.
    ++d.dropped_overflow;
    emit_drop(t.from, to, egress_id, DropReason::overflow, t.ingress_at);
    return false;
  }
  ++d.queued;
  d.peak_queued = std::max(d.peak_queued, d.queued);
  ++d.forwarded;
  if (t.translation != nullptr) {
    ++t.translation->emitted;
  }
  return true;
}

void GatewayNode::queue_egress(BusId to, Transit t, std::uint32_t egress_id,
                               Egress item, SimTime latency) {
  // After the processing latency the frame enters the egress mailbox and
  // competes like locally-originated traffic. The origin timestamp rides
  // along untouched (the fabrics only stamp negatives). Admission happens
  // at ingress time on a same-shard direction, replayed on the egress
  // shard on a cross-shard one.
  auto send = [this, to, t, item = std::move(item)] {
    Port& port = ports_[to];
    if (const auto* frame = std::get_if<can::CanFrame>(&item)) {
      port.in_transit[can::arbitration_key(*frame)].push_back(t);
      port.bus->send(port.node, *frame);
    } else {
      const DynEgress& dyn = std::get<DynEgress>(item);
      port.in_transit[port.flexray->dyn_info(dyn.dyn).slot_id].push_back(t);
      port.flexray->send_dynamic(dyn.dyn, dyn.payload);
    }
  };
  sim::Simulation& in = *ports_[t.from].shard;
  sim::Simulation& out = *ports_[to].shard;
  if (&in == &out) {
    if (admit(to, t, egress_id)) {
      in.schedule_in(latency, std::move(send));
    }
    return;
  }
  in.post_cross(out, t.ingress_at + latency,
                [this, to, t, egress_id, send = std::move(send)] {
                  if (admit(to, t, egress_id)) {
                    send();
                  }
                });
}

void GatewayNode::on_rx(BusId from, const can::CanFrame& frame, SimTime at) {
  for (const Route& route : routes_) {
    if (!route.enabled || route.from != from || !route.matches(frame.id)) {
      continue;
    }
    can::CanFrame out = frame;
    if (route.remap) {
      out.id = *route.remap;
    }
    if (!translate_format(route, out)) {
      // Translation drops are charged on the ingress shard (the decision
      // needs no egress queue state).
      ++dir_state(from, route.to).stats.dropped_translation;
      emit_drop(from, route.to, out.id, DropReason::translation, at);
      continue;
    }
    queue_egress(route.to, Transit{from, at}, out.id, out,
                 config_.forwarding_latency);
  }
  const unsigned pb = frame.rtr ? 0 : can::payload_bytes(frame);
  for (std::size_t i = 0; i < packed_routes_.size(); ++i) {
    const PackedRoute& route = packed_routes_[i];
    if (route.from != from || frame.rtr) {
      continue;
    }
    PackState& st = pack_state_[i];
    bool touched = false;
    for (const PackSlot& slot : route.table) {
      if (slot.src_id != frame.id) {
        continue;
      }
      touched = true;
      // Latest-value semantics; bytes past the ingress payload read as 0.
      for (unsigned k = 0; k < slot.bytes; ++k) {
        st.buffer[slot.offset + k] = k < pb ? frame.data[k] : 0;
      }
    }
    if (!touched) {
      continue;
    }
    ++st.stats.updates;
    if (frame.id != route.trigger_id) {
      continue;
    }
    const Transit t{from, at, &st.stats};
    const SimTime latency = config_.latency_of(route.latency);
    if (route.egress_dyn >= 0) {
      DynEgress e;
      e.dyn = route.egress_dyn;
      e.payload.bytes = route.egress_bytes;
      std::copy_n(st.buffer.begin(), e.payload.bytes, e.payload.data.begin());
      e.payload.timestamp = frame.timestamp;
      queue_egress(route.to, t, route.egress_id, std::move(e), latency);
    } else {
      can::CanFrame out;
      out.id = route.egress_id;
      out.extended = route.egress_extended;
      out.rtr = false;
      out.fd = route.egress_fd;
      out.brs = route.egress_brs;
      out.dlc = route.egress_dlc;
      std::copy_n(st.buffer.begin(), can::payload_bytes(out),
                  out.data.begin());
      out.timestamp = frame.timestamp;
      queue_egress(route.to, t, out.id, out, latency);
    }
  }
  for (std::size_t i = 0; i < unpack_routes_.size(); ++i) {
    const UnpackRoute& route = unpack_routes_[i];
    if (route.from != from || route.match_dyn >= 0 || frame.rtr ||
        frame.id != route.match_id) {
      continue;
    }
    run_unpack(i, route, frame.data.data(), pb, frame.timestamp, at);
  }
}

void GatewayNode::on_flexray_rx(BusId from,
                                const FlexrayFabric::DynFrameInfo& info,
                                const FlexrayFabric::DynPayload& payload,
                                SimTime at) {
  const Port& port = ports_[from];
  for (std::size_t i = 0; i < unpack_routes_.size(); ++i) {
    const UnpackRoute& route = unpack_routes_[i];
    if (route.from != from || route.match_dyn < 0 ||
        port.flexray->dyn_info(route.match_dyn).slot_id != info.slot_id) {
      continue;
    }
    run_unpack(i, route, payload.data.data(), payload.bytes,
               payload.timestamp, at);
  }
}

void GatewayNode::run_unpack(std::size_t route_index,
                             const UnpackRoute& route,
                             const std::uint8_t* payload,
                             unsigned payload_bytes, std::int64_t timestamp,
                             SimTime at) {
  TranslationStats& st = unpack_stats_[route_index];
  ++st.updates;
  const Transit t{route.from, at, &st};
  const SimTime latency = config_.latency_of(route.latency);
  for (const UnpackSlot& slot : route.table) {
    // A full direction drops this slice inside queue_egress; later slices
    // may still fit.
    can::CanFrame out;
    out.id = slot.dst_id;
    out.extended = slot.extended;
    out.rtr = false;
    out.fd = false;
    out.dlc = slot.dlc;
    for (unsigned k = 0; k < slot.dlc; ++k) {
      const unsigned src = slot.offset + k;
      out.data[k] = src < payload_bytes ? payload[src] : 0;
    }
    out.timestamp = timestamp;
    queue_egress(route.to, t, out.id, out, latency);
  }
}

void GatewayNode::complete(BusId to, std::uint32_t key, SimTime at) {
  auto& in_transit = ports_[to].in_transit;
  const auto it = in_transit.find(key);
  ACES_CHECK_MSG(it != in_transit.end() && !it->second.empty(),
                 "gateway '" + name_ + "' completed a frame it never sent");
  const Transit t = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) {
    in_transit.erase(it);
  }
  DirectionState& st = dir_state(t.from, to);
  DirectionStats& d = st.stats;
  if (ports_[t.from].shard == ports_[to].shard) {
    ACES_CHECK(d.queued > 0);
    --d.queued;
  } else {
    // Cross-shard: the slot is freed by the admission replay at the next
    // admit whose ingress instant is at or after this completion.
    st.pending_release.push_back(at);
  }
  ++d.delivered;
  const SimTime transit = at - t.ingress_at;
  d.worst_transit = std::max(d.worst_transit, transit);
  if (t.translation != nullptr) {
    t.translation->worst_transit =
        std::max(t.translation->worst_transit, transit);
  }
}

void GatewayNode::reset_stats() {
  for (auto& [key, st] : directions_) {
    const unsigned queued = st.stats.queued;  // live state, kept (includes
                                              // the unreplayed backlog)
    st.stats = DirectionStats{};
    st.stats.queued = queued;
    // The new window's peak starts at the true in-gateway count.
    st.stats.peak_queued =
        queued - static_cast<unsigned>(st.pending_release.size());
  }
  for (PackState& st : pack_state_) {
    st.stats = TranslationStats{};  // the packing buffer is state, kept
  }
  for (TranslationStats& st : unpack_stats_) {
    st = TranslationStats{};
  }
}

}  // namespace aces::net
