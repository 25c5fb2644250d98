#include "can/bus.h"

#include <algorithm>

#include "support/check.h"

namespace aces::can {

using sim::SimTime;

CanBus::CanBus(sim::EventQueue& queue, std::uint32_t bitrate_bps,
               std::uint32_t data_bitrate_bps)
    : queue_(queue) {
  ACES_CHECK(bitrate_bps > 0);
  bit_time_ = sim::kSecond / bitrate_bps;
  ACES_CHECK_MSG(bit_time_ > 0, "bit rate too high for ns resolution");
  if (data_bitrate_bps > 0) {
    ACES_CHECK_MSG(data_bitrate_bps >= bitrate_bps,
                   "FD data bit rate below the arbitration rate");
    data_bit_time_ = sim::kSecond / data_bitrate_bps;
    ACES_CHECK_MSG(data_bit_time_ > 0,
                   "data bit rate too high for ns resolution");
  }
  static_assert(kErrorFlagBits + kErrorDelimiterBits + kIntermissionBits +
                        kSuspendTransmissionBits <=
                    31,
                "error signaling must stay under the 31-bit RTA recovery "
                "term");
}

NodeId CanBus::attach_node(std::string name) {
  Node n;
  n.name = std::move(name);
  nodes_.push_back(std::move(n));
  // A new potential acknowledger joined: suspended lonely transmitters
  // retry. (Gated so a classic bus build-up never triggers arbitration
  // from inside attach_node.)
  bool any_lonely = false;
  for (const Node& node : nodes_) {
    any_lonely = any_lonely || node.lonely;
  }
  if (any_lonely) {
    wake_lonely();
    if (!busy_) {
      try_start();
    }
  }
  return static_cast<NodeId>(nodes_.size() - 1);
}

void CanBus::subscribe(NodeId node, RxHandler handler) {
  nodes_[static_cast<std::size_t>(node)].handlers.push_back(
      std::move(handler));
}

void CanBus::subscribe_tx(NodeId node, TxHandler handler) {
  nodes_[static_cast<std::size_t>(node)].tx_handlers.push_back(
      std::move(handler));
}

void CanBus::subscribe_err(NodeId node, ErrHandler handler) {
  nodes_[static_cast<std::size_t>(node)].err_handlers.push_back(
      std::move(handler));
}

void CanBus::set_bit_error_model(BitErrorModel model) {
  error_model_ = std::move(model);
}

CanBus::AttemptTiming CanBus::attempt_timing(const CanFrame& f) const {
  AttemptTiming t;
  t.bit_time = bit_time_;
  t.data_bit_time = data_phase_bit_time(f);
  if (!f.fd) {
    t.bits = exact_wire_bits(f);
    t.head = t.bits;
    return t;
  }
  const FdWireBits w = fd_exact_wire_bits(f);
  t.bits = w.nominal_bits + w.data_bits;
  t.head = w.nominal_bits - 13;  // the 13-bit tail is back at nominal rate
  t.data_bits = w.data_bits;
  return t;
}

ErrorState CanBus::state_of(const Node& n) const {
  if (n.bus_off) {
    return ErrorState::bus_off;
  }
  if (n.tec >= 128 || n.rec >= 128) {
    return ErrorState::error_passive;
  }
  return ErrorState::error_active;
}

ErrorState CanBus::error_state(NodeId node) const {
  return state_of(nodes_[static_cast<std::size_t>(node)]);
}

unsigned CanBus::tec(NodeId node) const {
  return nodes_[static_cast<std::size_t>(node)].tec;
}

unsigned CanBus::rec(NodeId node) const {
  return nodes_[static_cast<std::size_t>(node)].rec;
}

void CanBus::set_manual_bus_off_recovery(NodeId node, bool manual) {
  Node& n = nodes_[static_cast<std::size_t>(node)];
  n.manual_recovery = manual;
  if (!manual && n.bus_off) {
    arm_recovery(node);
  } else if (manual && n.recovery_armed) {
    // Switching to manual revokes an auto-armed sequence: the node stays
    // off the wire until request_recovery().
    queue_.cancel(n.recovery_event);
    n.recovery_armed = false;
  }
}

void CanBus::request_recovery(NodeId node) {
  if (nodes_[static_cast<std::size_t>(node)].bus_off) {
    arm_recovery(node);
  }
}

void CanBus::detach(NodeId node) {
  Node& n = nodes_[static_cast<std::size_t>(node)];
  if (n.detached) {
    return;
  }
  n.detached = true;
  if (n.recovery_armed) {
    // An unpowered controller cannot observe the 128x11 recessive bits;
    // the sequence restarts from scratch at attach().
    queue_.cancel(n.recovery_event);
    n.recovery_armed = false;
  }
}

void CanBus::attach(NodeId node) {
  Node& n = nodes_[static_cast<std::size_t>(node)];
  if (!n.detached) {
    return;
  }
  n.detached = false;
  if (n.bus_off && !n.manual_recovery) {
    arm_recovery(node);
  }
  // A new potential acknowledger: suspended lonely transmitters retry.
  wake_lonely();
  if (!busy_) {
    try_start();
  }
}

bool CanBus::attached(NodeId node) const {
  return !nodes_[static_cast<std::size_t>(node)].detached;
}

bool CanBus::has_ack_peer(NodeId tx) const {
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    const Node& n = nodes_[k];
    if (static_cast<NodeId>(k) != tx && !n.detached && !n.bus_off) {
      return true;
    }
  }
  return false;
}

void CanBus::wake_lonely() {
  for (Node& n : nodes_) {
    n.lonely = false;
  }
}

void CanBus::schedule_bus_dead(sim::SimTime at, sim::SimTime duration) {
  ACES_CHECK_MSG(duration > 0, "dead-bus window needs a positive duration");
  queue_.schedule_at(at, [this] {
    bus_dead_ = true;
    ++fault_stats_.dead_bus_windows;
  });
  queue_.schedule_at(at + duration, [this] {
    bus_dead_ = false;
    if (!busy_) {
      try_start();
    }
  });
}

void CanBus::emit(NodeId node, ErrorEvent::Kind kind) {
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  ErrorEvent e;
  e.kind = kind;
  e.state = state_of(n);
  e.tec = n.tec;
  e.rec = n.rec;
  for (const ErrHandler& h : n.err_handlers) {
    h(e, queue_.now());
  }
}

void CanBus::send(NodeId node, const CanFrame& frame) {
  ACES_CHECK_MSG(!frame.fd || fd_enabled(),
                 "FD frame on a classic-only bus (construct the CanBus "
                 "with a data bit rate to enable CAN FD)");
  // Reject malformed frames here, while the caller can still see the
  // throw: once queued, a frame is only priced at its arbitration.
  check_frame(frame);
  if (nodes_[static_cast<std::size_t>(node)].detached) {
    // A dead transceiver drives nothing onto the wire; the write is lost
    // (and observable), not deferred.
    ++fault_stats_.detached_drops;
    return;
  }
  Pending p;
  p.frame = frame;
  p.queued_at = queue_.now();
  if (p.frame.timestamp < 0) {
    // First queuing stamps the origin; a forwarder re-sending the frame on
    // another bus keeps the stamp (t=0 included), so end-to-end latency
    // stays measurable.
    p.frame.timestamp = queue_.now();
  }
  // Controllers with priority-ordered mailboxes: the node always offers
  // its highest-priority frame to arbitration (required for the classic
  // RTA to be sound; FIFO-queued controllers need a different analysis).
  const std::uint32_t key = arbitration_key(frame);
  auto& q = nodes_[static_cast<std::size_t>(node)].queue;
  auto it = q.begin();
  while (it != q.end() && arbitration_key(it->frame) <= key) {
    ++it;
  }
  q.insert(it, std::move(p));
  if (!busy_) {
    try_start();
  }
}

void CanBus::try_start() {
  ACES_CHECK(!busy_);
  if (bus_dead_) {
    return;  // wire is cut: backlog drains when the window closes
  }
  // Arbitration: every attached, fault-confined node presents its
  // head-of-queue frame; the dominant-winning bit pattern (lowest key)
  // takes the bus. Lonely-suspended transmitters sit out until a peer
  // appears.
  NodeId winner = -1;
  std::uint32_t best_key = 0;
  bool duplicate = false;
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    const Node& n = nodes_[k];
    if (n.bus_off || n.detached || n.lonely || n.queue.empty()) {
      continue;
    }
    const std::uint32_t key = arbitration_key(n.queue.front().frame);
    if (winner < 0 || key < best_key) {
      winner = static_cast<NodeId>(k);
      best_key = key;
      duplicate = false;
    } else if (key == best_key) {
      duplicate = true;
    }
  }
  if (winner < 0) {
    return;
  }
  Node& node = nodes_[static_cast<std::size_t>(winner)];
  if (duplicate) {
    // Two nodes won arbitration with the same bit pattern: a protocol
    // violation (their data/CRC bits would now collide as undetected-by-
    // arbitration bit errors). Resolved deterministically by node index,
    // but diagnosed, because it also voids the analysis' unique-priority
    // assumption and merges the per-identifier statistics.
    ++fault_stats_.duplicate_id_conflicts;
    fault_stats_.last_duplicate_id = node.queue.front().frame.id;
  }

  // Take the winning frame off its queue and claim the wire *before*
  // consulting the (user-supplied) error model: a model that reacts by
  // calling send() must neither start a nested transmission nor shift
  // this frame out from under us via deque insertion.
  Pending pending = std::move(node.queue.front());
  node.queue.pop_front();
  if (pending.attempts > 0) {
    ++fault_stats_.retransmissions;  // a previously-corrupted frame retries
  }
  ++pending.attempts;
  const AttemptTiming timing = attempt_timing(pending.frame);
  busy_ = true;
  tx_started_at_ = queue_.now();
  int corrupt = -1;
  if (error_model_) {
    corrupt = error_model_(pending.frame, winner, queue_.now());
    corrupt = std::min(corrupt, static_cast<int>(timing.bits) - 1);
  }
  if (corrupt < 0) {
    const SimTime duration = timing.prefix(timing.bits);
    queue_.schedule_in(duration, [this, pending, winner, duration] {
      finish_clean(winner, pending, duration);
    });
  } else {
    // The error is detected at the corrupted bit; the wire carries the
    // error frame instead of the rest of this attempt.
    const std::uint32_t id = pending.frame.id;
    const SimTime duration =
        timing.prefix(static_cast<unsigned>(corrupt) + 1) +
        signal_error(node, std::move(pending));
    queue_.schedule_in(duration, [this, winner, id, duration] {
      finish_error(winner, id, duration);
    });
  }
}

void CanBus::finish_clean(NodeId winner, const Pending& pending,
                          SimTime duration) {
  Node& tx = nodes_[static_cast<std::size_t>(winner)];
  if (ack_errors_ && !has_ack_peer(winner)) {
    // Nobody drove the ACK slot dominant: the transmitter signals an
    // error at the end of the data portion and the wire carries the
    // error frame.
    const std::uint32_t id = pending.frame.id;
    const SimTime extra = signal_error(tx, pending);
    // busy_ stays set through the error signaling.
    queue_.schedule_in(extra, [this, winner, id, total = duration + extra] {
      finish_ack_error(winner, id, total);
    });
    return;
  }
  busy_ = false;
  busy_time_ += duration;
  MessageStats& s = stats_[pending.frame.id];
  ++s.sent;
  const SimTime latency = queue_.now() - pending.queued_at;
  s.worst_latency = std::max(s.worst_latency, latency);
  s.total_latency += latency;
  // Successful exchange: the transmitter's TEC and every receiver's REC
  // count down, possibly re-promoting error-passive nodes.
  Node& w = nodes_[static_cast<std::size_t>(winner)];
  if (w.tec > 0) {
    move_counter(winner, w.tec, w.tec - 1);
  }
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    Node& n = nodes_[k];
    if (static_cast<NodeId>(k) == winner || n.bus_off || n.detached ||
        n.rec == 0) {
      continue;
    }
    move_counter(static_cast<NodeId>(k), n.rec, n.rec - 1);
  }
  // Transmit-complete on the sender, then deliver to every other
  // attached, fault-confined node (bus-off and detached nodes are
  // disconnected from traffic).
  for (const TxHandler& h : w.tx_handlers) {
    h(pending.frame, queue_.now());
  }
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    if (static_cast<NodeId>(k) == winner || nodes_[k].bus_off ||
        nodes_[k].detached) {
      continue;
    }
    for (const RxHandler& h : nodes_[k].handlers) {
      h(pending.frame, queue_.now());
    }
  }
  // A handler may have sent synchronously (mailbox chaining on
  // transmit-complete) and already restarted arbitration.
  if (!busy_) {
    try_start();
  }
}

SimTime CanBus::signal_error(Node& tx, Pending pending) {
  // Error signaling is always at the nominal rate (an FD transmitter drops
  // back to the arbitration bit rate when it detects an error).
  const bool passive = state_of(tx) == ErrorState::error_passive;
  const unsigned signal_bits = kErrorFlagBits + kErrorDelimiterBits +
                               kIntermissionBits +
                               (passive ? kSuspendTransmissionBits : 0);
  const std::uint32_t key = arbitration_key(pending.frame);
  auto it = tx.queue.begin();
  while (it != tx.queue.end() && arbitration_key(it->frame) < key) {
    ++it;
  }
  tx.queue.insert(it, std::move(pending));
  return bit_time_ * signal_bits;
}

void CanBus::move_counter(NodeId node, unsigned& counter, unsigned next) {
  Node& n = nodes_[static_cast<std::size_t>(node)];
  const ErrorState prev = state_of(n);
  counter = next;
  if (state_of(n) != prev) {
    emit(node, ErrorEvent::Kind::state_change);
  }
}

void CanBus::bump_tec(Node& n, NodeId node) {
  const ErrorState prev = state_of(n);
  n.tec = std::min(n.tec + 8, 256u);  // 256 marks the bus-off crossing
  if (!n.bus_off && n.tec > 255) {
    n.bus_off = true;
    ++fault_stats_.bus_off_events;
    if (!n.manual_recovery) {
      arm_recovery(node);
    }
  }
  if (state_of(n) != prev) {
    emit(node, ErrorEvent::Kind::state_change);
  }
}

void CanBus::finish_error(NodeId winner, std::uint32_t id, SimTime duration) {
  busy_ = false;
  busy_time_ += duration;
  ++fault_stats_.bit_errors;
  ++stats_[id].errors;
  Node& w = nodes_[static_cast<std::size_t>(winner)];
  bump_tec(w, winner);
  emit(winner, ErrorEvent::Kind::tx_error);
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    Node& n = nodes_[k];
    if (static_cast<NodeId>(k) == winner || n.bus_off || n.detached) {
      continue;
    }
    // Saturates at 255: an 8-bit counter, like real silicon.
    move_counter(static_cast<NodeId>(k), n.rec, std::min(n.rec + 1, 255u));
  }
  // Next arbitration: the corrupted frame (still queued) competes again,
  // unless its node just went bus-off — then it waits for recovery.
  if (!busy_) {
    try_start();
  }
}

void CanBus::finish_ack_error(NodeId winner, std::uint32_t id,
                              SimTime duration) {
  busy_ = false;
  busy_time_ += duration;
  ++fault_stats_.ack_errors;
  ++stats_[id].errors;
  Node& w = nodes_[static_cast<std::size_t>(winner)];
  if (state_of(w) == ErrorState::error_active) {
    // TEC +8, as for any transmit error. ACK errors stop counting at
    // error-passive (the fault-confinement exception), so a lonely
    // transmitter can never reach bus-off from missing ACKs alone.
    bump_tec(w, winner);
  } else {
    // Error-passive with nobody acknowledging: suspend retries until a
    // peer attaches or recovers — bounded behavior instead of an
    // event-queue livelock.
    w.lonely = true;
  }
  emit(winner, ErrorEvent::Kind::tx_error);
  if (!busy_) {
    try_start();
  }
}

void CanBus::arm_recovery(NodeId node) {
  Node& n = nodes_[static_cast<std::size_t>(node)];
  if (n.recovery_armed) {
    return;
  }
  n.recovery_armed = true;
  n.recovery_event =
      queue_.schedule_in(bit_time_ * kBusOffRecoveryBits, [this, node] {
    Node& rn = nodes_[static_cast<std::size_t>(node)];
    rn.bus_off = false;
    rn.recovery_armed = false;
    rn.tec = 0;
    rn.rec = 0;
    ++fault_stats_.recoveries;
    emit(node, ErrorEvent::Kind::state_change);
    // The recovered node can acknowledge again: wake suspended lonely
    // transmitters along with restarting arbitration.
    wake_lonely();
    if (!busy_) {
      try_start();
    }
  });
}

void CanBus::reset_stats() {
  stats_.clear();
  fault_stats_ = FaultStats{};
  busy_time_ = 0;
  if (busy_) {
    // An attempt is on the wire: charge only its post-reset share to the
    // new window (tx_started_at_ is otherwise only read by utilization).
    tx_started_at_ = queue_.now();
  }
}

}  // namespace aces::can
