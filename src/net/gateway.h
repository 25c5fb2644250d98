// Store-and-forward gateway: the node that turns separate fabrics into a
// vehicle network.
//
// Real vehicles segment traffic onto domain buses (powertrain / body /
// diagnostics) at different bit rates and bridge them with a gateway ECU.
// GatewayNode models the datapath of such an ECU: it sits on every bus its
// routing table references as an ordinary CAN node, receives completed
// frames, matches them against identifier match/mask routes, optionally
// rewrites the identifier, charges a fixed store-and-forward processing
// latency, and queues the frame into the egress bus's priority-ordered
// mailbox — where it arbitrates like any other traffic.
//
// Heterogeneous fabrics add two translating route kinds and FlexRay ports:
//
//   Route (plain)   may also promote a classic frame to CAN FD on an
//                   FD-capable egress bus (`fd = true`) or demote an FD
//                   frame that fits 8 bytes back to classic (`fd = false`,
//                   e.g. leaving an FD backbone for a legacy bus; an FD
//                   frame too big to demote is dropped and counted);
//   PackedRoute     N classic ingress frames update a 64-byte packing
//                   buffer through a signal-packing table; the arrival of
//                   the designated trigger frame emits ONE aggregated
//                   frame — a CAN FD frame or a FlexRay dynamic frame —
//                   carrying the trigger's origin timestamp;
//   UnpackRoute     the inverse: one big ingress frame (CAN/CAN FD by id,
//                   or FlexRay dynamic by DynId) fans out into N classic
//                   frames sliced from its payload, each carrying the big
//                   frame's origin timestamp.
//
// Buffering is bounded per *direction* (ingress bus -> egress bus): at most
// `queue_depth` frames may be inside the gateway (accepted but not yet
// delivered on the egress wire) per direction; a frame arriving to a full
// direction is dropped and counted, never queued — the overload behavior a
// schedulability argument has to see. CanFrame::timestamp (and the FlexRay
// DynPayload timestamp) is preserved across the hop, so receivers measure
// true end-to-end latency, the quantity sched::path_rta bounds.
//
// Every route kind, on either fabric, leaves through one egress datapath
// and returns through one completion path. Egress takes a CAN frame or a
// FlexRay dynamic frame id plus payload, decides admission, credits the
// translating route, records the frame as in transit and hands it to the
// egress port. Each port keeps its in-flight frames in FIFOs keyed the
// way its wire orders them: by can::arbitration_key on a CAN port (so a
// standard and an extended frame with one identifier, or a data and a
// remote frame, are told apart) and by dynamic slot id on a FlexRay port.
// A wire completion releases the front of its key's FIFO — exactly the
// frame the wire carried, since the mailbox is FIFO among equal keys and
// re-queues a retransmission ahead of its equal-key siblings.
//
// A frame the gateway itself transmits is never received back by the
// gateway on that bus (CAN delivery skips the transmitter), so a pair of
// complementary routes cannot ping-pong one frame. Multi-hop forwarding
// therefore needs a distinct gateway per hop, as in a real E/E
// architecture.
#ifndef ACES_NET_GATEWAY_H
#define ACES_NET_GATEWAY_H

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "can/bus.h"
#include "net/flexray_fabric.h"
#include "sim/simulation.h"

namespace aces::net {

using BusId = int;

// One routing-table entry: forward frames whose identifier matches `match`
// under `mask` from bus `from` to bus `to`, optionally rewriting the
// identifier to `remap`. Every matching route forwards (fan-out to several
// egress buses is one entry per destination).
struct Route {
  BusId from = -1;
  BusId to = -1;
  std::uint32_t match = 0;
  std::uint32_t mask = 0x7FF;  // compared identifier bits (11-bit default)
  std::optional<std::uint32_t> remap;  // egress identifier override
  // Egress format translation. `fd = true` promotes to CAN FD (the egress
  // bus must have a data bit rate), `fd = false` demotes to classic — an
  // FD frame whose DLC code exceeds 8 bytes cannot demote and is dropped
  // (counted as dropped_translation). Unset forwards the format verbatim;
  // forwarding an FD frame onto a classic-only egress bus is then a
  // configuration error the egress bus rejects. `brs` overrides the
  // bit-rate switch on (promoted or passed-through) FD egress frames.
  std::optional<bool> fd{};
  std::optional<bool> brs{};
  // Disabled routes are skipped entirely; toggled at runtime via
  // GatewayNode::set_route_enabled — the mechanism behind supervisor-driven
  // failover, where a standby route on a redundant bus is pre-declared
  // disabled and switched on when the primary's publisher dies.
  bool enabled = true;

  [[nodiscard]] bool matches(std::uint32_t id) const {
    return (id & mask) == (match & mask);
  }
};

// Signal-packing table entry: `bytes` bytes of `src_id`'s payload land at
// `offset` in the packed payload.
struct PackSlot {
  std::uint32_t src_id = 0;
  unsigned offset = 0;
  unsigned bytes = 8;
};

// Aggregating translation (see file comment). The packing buffer holds the
// latest payload of every table identifier; `trigger_id` (which must be
// one of the table's identifiers) emits the aggregate after updating its
// own slot.
struct PackedRoute {
  BusId from = -1;
  BusId to = -1;
  std::vector<PackSlot> table;
  std::uint32_t trigger_id = 0;
  // CAN(-FD) egress (used when egress_dyn < 0). egress_dlc is the DLC
  // *code*; its payload must cover the table extent.
  std::uint32_t egress_id = 0;
  bool egress_extended = false;
  bool egress_fd = true;
  bool egress_brs = true;
  unsigned egress_dlc = 0;
  // FlexRay egress: >= 0 selects the registered dynamic frame (owned by
  // this gateway's node on `to`) carrying the packed payload.
  int egress_dyn = -1;
  unsigned egress_bytes = 0;  // FlexRay payload size; 0 = table extent
  // Translation processing latency; < 0 uses the gateway's
  // forwarding_latency.
  sim::SimTime latency = -1;
};

// One slice of an unpacking table: bytes [offset, offset+dlc) of the big
// payload egress as a classic frame `dst_id` with `dlc` data bytes.
struct UnpackSlot {
  std::uint32_t dst_id = 0;
  bool extended = false;
  unsigned dlc = 8;
  unsigned offset = 0;
};

// Disaggregating translation: the inverse of PackedRoute.
struct UnpackRoute {
  BusId from = -1;
  BusId to = -1;
  std::uint32_t match_id = 0;  // CAN ingress identifier…
  int match_dyn = -1;          // …or FlexRay DynId when `from` is FlexRay
  std::vector<UnpackSlot> table;
  sim::SimTime latency = -1;  // < 0: the gateway's forwarding_latency
};

struct GatewayConfig {
  // Store-and-forward processing per frame: the time between delivery on
  // the ingress bus and the frame entering the egress mailbox.
  sim::SimTime forwarding_latency = 0;
  // Per-direction bound on frames inside the gateway (accepted, not yet on
  // the egress wire). 0 is rejected — a gateway that can hold nothing
  // forwards nothing.
  unsigned queue_depth = 16;

  // The one latency rule: a route's processing latency is its own
  // `latency` when set, forwarding_latency when negative (plain routes
  // carry none and always pass -1).
  [[nodiscard]] sim::SimTime latency_of(sim::SimTime route_latency) const {
    return route_latency < 0 ? forwarding_latency : route_latency;
  }
};

// Sharding: a gateway may bridge buses living on different sim::Shards —
// it is the ONLY cross-shard element in a Network. Each port remembers its
// bus's shard; ingress handling (route match, translation, packing) runs
// on the ingress shard, egress (mailbox entry, wire completion, the
// port's in-flight FIFOs, per-direction queue accounting) on the egress
// shard. The one egress routine branches on a single question, whether
// the two ports share a shard. If they do, it admits at the ingress
// instant and schedules the mailbox entry `latency` later on that shard.
// If not, the hop travels through the shard outbox at ingress_time +
// latency — which is exactly why the forwarding latency is the
// synchronization lookahead — and admission is decided there, on the
// egress shard, reproducing the serial ingress-time decision exactly:
// egress completions stamped at or before the frame's ingress instant are
// replayed (released) first. The one completion routine frees the slot at
// once on a same-shard direction and queues the release for that replay
// on a cross-shard one.
class GatewayNode {
 public:
  GatewayNode(std::string name, GatewayConfig config);

  GatewayNode(const GatewayNode&) = delete;
  GatewayNode& operator=(const GatewayNode&) = delete;

  // Wiring (done by Network::build): join every bus the routing table
  // references — on the shard that bus lives on — then install the routes.
  void join(BusId id, can::CanBus& bus, sim::Simulation& shard);
  void join_flexray(BusId id, FlexrayFabric& fabric, sim::Simulation& shard);
  void add_route(const Route& route);
  void add_packed_route(const PackedRoute& route);
  void add_unpack_route(const UnpackRoute& route);

  // Runtime failover switch for plain routes (indexed in add order).
  // Safe to call from any shard: the toggle is marshaled onto the route's
  // ingress shard (applied at the next epoch boundary when cross-shard).
  void set_route_enabled(std::size_t route, bool enabled);

  // Drop observability: degradation must be a signal, not just a tally.
  // Fired at every frame drop with the direction, the egress identifier
  // the frame would have carried, and the reason — the hook supervisors
  // and campaign counters wire into.
  enum class DropReason { overflow, translation };
  using DropHandler = std::function<void(BusId from, BusId to,
                                         std::uint32_t egress_id,
                                         DropReason, sim::SimTime)>;
  void on_drop(DropHandler handler) {
    drop_handlers_.push_back(std::move(handler));
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] can::NodeId node_on(BusId bus) const;
  // The gateway's node id on a joined FlexRay fabric (for registering the
  // dynamic frames its packed routes emit).
  [[nodiscard]] FlexrayFabric::NodeId flexray_node_on(BusId bus) const;
  [[nodiscard]] const std::vector<Route>& routes() const { return routes_; }
  [[nodiscard]] const std::vector<PackedRoute>& packed_routes() const {
    return packed_routes_;
  }
  [[nodiscard]] const std::vector<UnpackRoute>& unpack_routes() const {
    return unpack_routes_;
  }

  struct DirectionStats {
    std::uint64_t forwarded = 0;         // accepted into the gateway
    std::uint64_t delivered = 0;         // completed on the egress wire
    std::uint64_t dropped_overflow = 0;  // arrived with the direction full
    // Frames that could not be format-translated (an FD frame too big to
    // demote to classic on this direction).
    std::uint64_t dropped_translation = 0;
    unsigned queued = 0;                 // currently inside the gateway
    unsigned peak_queued = 0;
    // Worst ingress-delivery -> egress-delivery transit (forwarding
    // latency + egress queuing + egress frame time).
    sim::SimTime worst_transit = 0;
  };
  // Returned by value: a snapshot of the frames this direction has
  // admitted. `queued` leaves out frames the egress wire has completed,
  // including cross-shard completions not yet replayed. On a cross-shard
  // direction admission itself is decided on the egress shard one
  // forwarding latency after ingress, so right after run_until(h) a frame
  // that reached the gateway later than h - latency is not yet counted in
  // `forwarded`, `queued` or `dropped_overflow`. Read at or after ingress
  // + latency, the snapshot equals the shards(1) run's, which counts at
  // ingress.
  [[nodiscard]] DirectionStats direction(BusId from, BusId to) const;

  // Per translating route (indexed in add order).
  struct TranslationStats {
    std::uint64_t updates = 0;  // ingress frames consumed into the buffer
                                // (pack) / big frames matched (unpack)
    std::uint64_t emitted = 0;  // egress frames queued
    sim::SimTime worst_transit = 0;  // trigger/big-frame rx -> egress wire
  };
  [[nodiscard]] const TranslationStats& packed_stats(std::size_t route) const;
  [[nodiscard]] const TranslationStats& unpack_stats(std::size_t route) const;

  struct Stats {
    std::uint64_t frames_forwarded = 0;
    std::uint64_t frames_delivered = 0;
    std::uint64_t frames_dropped = 0;
  };
  // Computed from the per-direction counters (each owned by exactly one
  // shard thread — an incrementally-maintained aggregate would be a data
  // race under sharding), so it lags on cross-shard directions exactly
  // like direction().
  [[nodiscard]] Stats stats() const;

  // Clears the forwarding counters (per-direction, per-route and
  // aggregate) without touching live state: frames currently inside the
  // gateway stay queued and still deliver; `queued` is preserved and
  // `peak_queued` restarts from it. Packing buffers are state, not
  // statistics, and persist. Pairs with CanBus::reset_stats for fresh
  // measurement windows on a reused topology.
  void reset_stats();

 private:
  // A frame handed to an egress mailbox, awaiting its wire completion.
  struct Transit {
    BusId from = -1;
    sim::SimTime ingress_at = 0;
    TranslationStats* translation = nullptr;  // translating route, if any
  };
  struct Port {
    can::CanBus* bus = nullptr;         // exactly one of bus/flexray set
    FlexrayFabric* flexray = nullptr;
    can::NodeId node = -1;              // node id on whichever fabric
    sim::Simulation* shard = nullptr;   // the scheduler this fabric lives on
    // Frames in flight through this egress port, one FIFO per
    // can::arbitration_key (CAN) or dynamic slot id (FlexRay); see the
    // file comment for why the front is always the completed frame.
    std::map<std::uint32_t, std::deque<Transit>> in_transit;
  };
  // What a route hands to an egress port: a CAN frame, or a FlexRay
  // dynamic frame id plus its payload.
  struct DynEgress {
    FlexrayFabric::DynId dyn = -1;
    FlexrayFabric::DynPayload payload;
  };
  using Egress = std::variant<can::CanFrame, DynEgress>;

  void on_rx(BusId from, const can::CanFrame& frame, sim::SimTime at);
  void on_flexray_rx(BusId from, const FlexrayFabric::DynFrameInfo& info,
                     const FlexrayFabric::DynPayload& payload,
                     sim::SimTime at);
  // Applies a plain route's format overrides in place; false = the frame
  // cannot be represented on egress (demotion overflow).
  [[nodiscard]] bool translate_format(const Route& route,
                                      can::CanFrame& out) const;
  // Bounded admission of `t` into direction (t.from, to), crediting its
  // translating route; false = overflow drop (fires the drop hooks with
  // `egress_id`).
  [[nodiscard]] bool admit(BusId to, const Transit& t,
                           std::uint32_t egress_id);
  void emit_drop(BusId from, BusId to, std::uint32_t egress_id,
                 DropReason reason, sim::SimTime at);
  // The one egress datapath (see the sharding note above the class):
  // admission, translation credit, the in-flight record and the send.
  void queue_egress(BusId to, Transit t, std::uint32_t egress_id,
                    Egress item, sim::SimTime latency);
  // The one completion: the egress wire finished the frame under `key`.
  void complete(BusId to, std::uint32_t key, sim::SimTime at);
  void run_unpack(std::size_t route_index, const UnpackRoute& route,
                  const std::uint8_t* payload, unsigned payload_bytes,
                  std::int64_t timestamp, sim::SimTime at);
  [[nodiscard]] const Port& port_of(BusId id) const;

  // Per-direction accounting plus the cross-shard release backlog (see
  // admit): egress-wire completions at instants the admission replay has
  // not consumed yet. Same-shard directions never populate it, so the
  // replay loop is a no-op there and the serial admission path is intact.
  struct DirectionState {
    DirectionStats stats;
    std::deque<sim::SimTime> pending_release;
  };
  [[nodiscard]] DirectionState& dir_state(BusId from, BusId to) {
    return directions_[{from, to}];
  }

  std::string name_;
  GatewayConfig config_;
  std::map<BusId, Port> ports_;
  std::vector<Route> routes_;
  std::vector<PackedRoute> packed_routes_;
  std::vector<UnpackRoute> unpack_routes_;
  // Latest-value packing buffer + statistics, one per packed route. Deques:
  // a Transit points into them, so adding a route must not move them.
  struct PackState {
    std::array<std::uint8_t, FlexrayFabric::kMaxPayload> buffer{};
    TranslationStats stats;
  };
  std::deque<PackState> pack_state_;
  std::deque<TranslationStats> unpack_stats_;
  std::map<std::pair<BusId, BusId>, DirectionState> directions_;
  std::vector<DropHandler> drop_handlers_;
};

}  // namespace aces::net

#endif  // ACES_NET_GATEWAY_H
