// CAN bus discrete-event simulator with a fault-accurate protocol layer.
//
// Models the arbitration behavior that makes CAN analyzable: transmission
// is non-preemptive; whenever the bus goes idle, every node with a pending
// frame enters arbitration and the lowest identifier wins (exact wire-bit
// ordering across standard/extended/remote formats — see
// frame.h:arbitration_key). Frame times use the exact stuffed bit counts
// from frame.h. Per-identifier latency statistics (queue-to-delivery) are
// what bench_can_rta checks against the closed-form worst-case analysis.
//
// CAN FD: a bus constructed with a data bit rate carries classic and FD
// frames on one wire. Both enter the same arbitration (the FD RRS bit is
// dominant exactly where a classic data frame's RTR is, so the classic
// key ordering carries over); an FD frame with BRS then runs its
// ESI+DLC+data+CRC span at the data bit rate and returns to the nominal
// rate for the ACK/EOF tail, per fd_exact_wire_bits' phase split. Error
// signaling always runs at the nominal rate — on a corrupted FD attempt
// the carried prefix is priced per phase, the error frame at bit_time().
// Sending an FD frame on a bus with no data bit rate is a configuration
// error (a classic-only bus would destroy FD frames with error flags).
//
// Fault model (CAN 2.0 error handling): an optional BitErrorModel decides,
// per transmission attempt, whether a bit on the wire is corrupted. A
// corrupted attempt is aborted at the corrupted bit, the bus carries an
// error frame (6-bit error flag + 8-bit delimiter + 3-bit intermission;
// an error-passive transmitter adds the 8-bit suspend-transmission
// penalty), and the frame is automatically retransmitted at the next
// arbitration with its original queue timestamp — so its measured latency
// includes every retry, which is what the faulted response-time bound in
// sched/can_rta.h must dominate. Every node runs the standard error state
// machine: transmit errors add 8 to TEC, observed errors add 1 to REC,
// successes decrement; TEC/REC >= 128 is error-passive, TEC > 255 is
// bus-off. A bus-off node drops out of arbitration and delivery until it
// has seen 128 x 11 recessive bits (a recovery timer on the shared event
// queue, armed immediately or — for nodes in manual-recovery mode, like
// real controllers waiting for software — when request_recovery is
// called), after which it rejoins error-active with cleared counters.
//
// Every stochastic choice lives in the caller-supplied BitErrorModel, so a
// model driven by a seeded support::Rng256 keeps the whole fault campaign
// deterministic and replayable.
#ifndef ACES_CAN_BUS_H
#define ACES_CAN_BUS_H

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "can/frame.h"
#include "sim/event_queue.h"

namespace aces::can {

using NodeId = int;

// CAN 2.0 fault-confinement states.
enum class ErrorState { error_active, error_passive, bus_off };

struct MessageStats {
  std::uint64_t sent = 0;
  std::uint64_t errors = 0;  // corrupted transmission attempts
  sim::SimTime worst_latency = 0;
  sim::SimTime total_latency = 0;

  [[nodiscard]] double avg_latency() const {
    return sent == 0 ? 0.0
                     : static_cast<double>(total_latency) /
                           static_cast<double>(sent);
  }
};

class CanBus {
 public:
  // Error-frame geometry (bit times). The per-error wire overhead
  // (flag + delimiter + intermission, plus suspend for an error-passive
  // transmitter) never exceeds the 31-bit recovery term the faulted
  // response-time analysis charges per error.
  static constexpr unsigned kErrorFlagBits = 6;
  static constexpr unsigned kErrorDelimiterBits = 8;
  static constexpr unsigned kIntermissionBits = 3;
  static constexpr unsigned kSuspendTransmissionBits = 8;
  // Bus-off recovery: 128 occurrences of 11 consecutive recessive bits.
  // (Simplified to elapsed bus time; under recovery the node is silent, so
  // a mostly-idle bus satisfies the condition in exactly this time.)
  static constexpr unsigned kBusOffRecoveryBits = 128 * 11;

  // Delivery callback: (receiving node, frame, end-of-frame time).
  using RxHandler = std::function<void(const CanFrame&, sim::SimTime)>;
  // Transmit-complete callback, fired on the sending node at end of frame
  // (after arbitration, blocking and any error retransmissions, i.e. at
  // true bus-delivery time).
  using TxHandler = std::function<void(const CanFrame&, sim::SimTime)>;

  // Error notification, per node: tx_error fires on the transmitter of a
  // corrupted attempt; state_change fires on any node whose
  // fault-confinement state moved (error-active <-> error-passive,
  // bus-off entry, recovery). Counters are post-event values.
  struct ErrorEvent {
    enum class Kind { tx_error, state_change };
    Kind kind = Kind::tx_error;
    ErrorState state = ErrorState::error_active;
    unsigned tec = 0;
    unsigned rec = 0;
  };
  using ErrHandler = std::function<void(const ErrorEvent&, sim::SimTime)>;

  // Consulted once per transmission attempt, at its start: returns the
  // zero-based wire-bit index to corrupt (clamped to the frame's length),
  // or a negative value for a clean transmission. Drive it from a seeded
  // support::Rng256 (or a mem::FaultInjector-style campaign) to keep the
  // simulation deterministic.
  using BitErrorModel =
      std::function<int(const CanFrame&, NodeId tx_node, sim::SimTime start)>;

  // `data_bitrate_bps` > 0 enables CAN FD: BRS frames run their data phase
  // at that rate. 0 keeps a classic-only bus that rejects FD frames.
  CanBus(sim::EventQueue& queue, std::uint32_t bitrate_bps,
         std::uint32_t data_bitrate_bps = 0);

  NodeId attach_node(std::string name);
  void subscribe(NodeId node, RxHandler handler);
  void subscribe_tx(NodeId node, TxHandler handler);
  void subscribe_err(NodeId node, ErrHandler handler);

  // Installs (or clears, with nullptr) the bit error model.
  void set_bit_error_model(BitErrorModel model);

  // Queues a frame for transmission from `node`. Queues are priority-
  // ordered by identifier (priority-queued mailboxes), matching the
  // assumption of the classic CAN response-time analysis. A bus-off node
  // keeps queueing; pending frames go out after recovery. Throws on a
  // frame check_frame rejects and on an FD frame on a classic-only bus.
  void send(NodeId node, const CanFrame& frame);

  // ----- node lifecycle (fault injection) ---------------------------------
  // A detached node has left the wire entirely (dead transceiver /
  // unpowered ECU): it takes no part in arbitration, receives nothing,
  // does no TEC/REC bookkeeping, and its send() calls are dropped and
  // counted (FaultStats::detached_drops). Pending frames stay queued and
  // compete again after attach(). Detaching cancels an armed bus-off
  // recovery sequence; attach() re-arms it (unless in manual mode). An
  // attempt already on the wire completes — detach takes effect at the
  // next arbitration, like pulling the connector mid-frame would at the
  // next interframe space.
  void detach(NodeId node);
  void attach(NodeId node);
  [[nodiscard]] bool attached(NodeId node) const;

  // The event queue (and thus shard) this bus is driven by — the place
  // cross-shard callers marshal lifecycle calls to (sim::run_on_queue).
  [[nodiscard]] sim::EventQueue& queue() noexcept { return queue_; }

  // ----- acknowledgement modeling (opt-in) --------------------------------
  // When enabled, a data/remote frame transmitted with no attached,
  // fault-confined peer to acknowledge it suffers an ACK error at the end
  // of the data portion: the wire carries error signaling, the frame is
  // re-queued for automatic retransmission, and the transmitter's TEC
  // rises by 8 — but only while error-active. Per the CAN fault-
  // confinement exception, an error-passive transmitter does NOT bump TEC
  // on a missing ACK, so a lonely transmitter converges to error-passive
  // and then *suspends* retries (bounded work, no event-queue livelock)
  // until a peer attaches or recovers, which restarts arbitration.
  // Default off: single-transmitter micro-benches and tests predate ACK
  // modeling and expect lone transmissions to succeed.
  void set_ack_errors(bool on) { ack_errors_ = on; }
  [[nodiscard]] bool ack_errors_enabled() const { return ack_errors_; }

  // ----- dead-bus window (harness cut / partition) ------------------------
  // Schedules a window [at, at+duration) during which the wire is dead: no
  // arbitration starts (an attempt already in flight completes). Sends
  // keep queueing and the backlog drains when the window closes. Counted
  // in FaultStats::dead_bus_windows.
  void schedule_bus_dead(sim::SimTime at, sim::SimTime duration);
  [[nodiscard]] bool bus_dead() const { return bus_dead_; }

  // ----- fault confinement ------------------------------------------------
  [[nodiscard]] ErrorState error_state(NodeId node) const;
  [[nodiscard]] unsigned tec(NodeId node) const;
  [[nodiscard]] unsigned rec(NodeId node) const;
  // When manual (how real controllers behave), a bus-off node stays off
  // the wire until request_recovery(); otherwise the 128x11-bit recovery
  // timer is armed at bus-off entry.
  void set_manual_bus_off_recovery(NodeId node, bool manual);
  // Starts the recovery sequence for a bus-off node; no-op otherwise.
  void request_recovery(NodeId node);

  [[nodiscard]] sim::SimTime bit_time() const { return bit_time_; }
  // Data-phase bit time for BRS frames; 0 on a classic-only bus.
  [[nodiscard]] sim::SimTime data_bit_time() const { return data_bit_time_; }
  [[nodiscard]] bool fd_enabled() const { return data_bit_time_ > 0; }
  // Wire geometry of one transmission attempt of a frame: its exact bit
  // count and the time its first n bits take. Classic frames run at the
  // nominal bit time throughout; an FD frame's data phase (between the
  // stuffed head and the 13-bit ACK/EOF tail, per fd_exact_wire_bits'
  // phase split) runs at data_phase_bit_time. The bus prices clean and
  // corrupted attempts with it, and seeded error models place their error
  // instants with it.
  struct AttemptTiming {
    unsigned bits = 0;       // the whole attempt
    unsigned head = 0;       // nominal-rate bits before the data phase
    unsigned data_bits = 0;  // data-phase bits (0 for classic frames)
    sim::SimTime bit_time = 0;
    sim::SimTime data_bit_time = 0;

    [[nodiscard]] sim::SimTime prefix(unsigned n) const {
      if (n <= head) {
        return bit_time * n;
      }
      if (n <= head + data_bits) {
        return bit_time * head + data_bit_time * (n - head);
      }
      return bit_time * head + data_bit_time * data_bits +
             bit_time * (n - head - data_bits);
    }
  };
  [[nodiscard]] AttemptTiming attempt_timing(const CanFrame& f) const;
  [[nodiscard]] sim::SimTime frame_time(const CanFrame& f) const {
    const AttemptTiming t = attempt_timing(f);
    return t.prefix(t.bits);
  }

  // Keyed by raw identifier (standard and extended identifiers share the
  // key space; a mixed-format set reusing the same numeric id merges).
  [[nodiscard]] const std::map<std::uint32_t, MessageStats>& stats() const {
    return stats_;
  }

  struct FaultStats {
    std::uint64_t bit_errors = 0;        // corrupted attempts signaled
    std::uint64_t retransmissions = 0;   // retry attempts actually started
    std::uint64_t bus_off_events = 0;
    std::uint64_t recoveries = 0;
    // Two nodes presenting the same arbitration pattern is a CAN protocol
    // violation (matching identifiers would collide past the arbitration
    // field and both "win"); the simulator resolves it deterministically
    // by node index but diagnoses it here, because it also breaks the
    // RTA's unique-priority assumption and merges per-id stats.
    std::uint64_t duplicate_id_conflicts = 0;
    std::uint32_t last_duplicate_id = 0;
    std::uint64_t ack_errors = 0;       // unacknowledged attempts (opt-in)
    std::uint64_t detached_drops = 0;   // sends from detached nodes
    std::uint64_t dead_bus_windows = 0; // scheduled wire-dead windows opened
  };
  [[nodiscard]] const FaultStats& fault_stats() const { return fault_stats_; }

  // Clears every observer-facing counter — per-message stats, fault stats,
  // accumulated busy time — without touching protocol state (pending
  // queues, TEC/REC, recovery timers). A measurement window opened by
  // reset_stats() counts exactly what happens after it: an attempt still
  // on the wire contributes only its post-reset share to utilization().
  // This is the reuse story for campaign workers sharing one topology
  // across variants (tests/campaign_test.cpp pins the regression).
  void reset_stats();

  // Fraction of `window` the wire carried bits (frames and error frames).
  // Busy time accrues when a transmission or error signal *completes*; an
  // attempt still on the wire contributes only its elapsed share, so a
  // mid-frame query never counts bits that haven't been sent.
  [[nodiscard]] double utilization(sim::SimTime window) const {
    if (window == 0) {
      return 0.0;
    }
    sim::SimTime busy = busy_time_;
    if (busy_) {
      busy += queue_.now() - tx_started_at_;
    }
    return static_cast<double>(busy) / static_cast<double>(window);
  }

 private:
  struct Pending {
    CanFrame frame;
    sim::SimTime queued_at = 0;
    unsigned attempts = 0;  // >0 at transmission start = a retransmission
  };
  struct Node {
    std::string name;
    std::deque<Pending> queue;
    std::vector<RxHandler> handlers;
    std::vector<TxHandler> tx_handlers;
    std::vector<ErrHandler> err_handlers;
    unsigned tec = 0;
    unsigned rec = 0;
    bool bus_off = false;
    bool detached = false;
    // Error-passive transmitter with nobody acknowledging: retries are
    // suspended until a peer (re)appears (see set_ack_errors).
    bool lonely = false;
    bool manual_recovery = false;
    bool recovery_armed = false;
    sim::EventId recovery_event = 0;
  };

  void try_start();  // arbitration when idle
  // Bit time governing a frame's data phase (nominal unless FD + BRS).
  [[nodiscard]] sim::SimTime data_phase_bit_time(const CanFrame& f) const {
    return (f.fd && f.brs && data_bit_time_ > 0) ? data_bit_time_ : bit_time_;
  }
  void finish_clean(NodeId winner, const Pending& pending,
                    sim::SimTime duration);
  // A failed attempt of `pending` by `tx`: re-queues the frame (original
  // timestamp, ahead of any equal-key sibling it was queued before) for
  // automatic retransmission and returns the wire time of the error frame
  // that follows — flag + delimiter + intermission, plus suspend when
  // `tx` is error-passive.
  [[nodiscard]] sim::SimTime signal_error(Node& tx, Pending pending);
  void finish_error(NodeId winner, std::uint32_t id, sim::SimTime duration);
  void finish_ack_error(NodeId winner, std::uint32_t id,
                        sim::SimTime duration);
  // True when some node other than `tx` would acknowledge a frame.
  [[nodiscard]] bool has_ack_peer(NodeId tx) const;
  // Clears every lonely-suspend flag (a potential ACK peer appeared).
  void wake_lonely();
  void arm_recovery(NodeId node);
  void bump_tec(Node& n, NodeId node);
  // Sets one of a node's error counters and emits a state_change if the
  // fault-confinement state crossed a boundary.
  void move_counter(NodeId node, unsigned& counter, unsigned next);
  [[nodiscard]] ErrorState state_of(const Node& n) const;
  void emit(NodeId node, ErrorEvent::Kind kind);

  sim::EventQueue& queue_;
  sim::SimTime bit_time_;
  sim::SimTime data_bit_time_ = 0;  // 0: classic-only bus
  std::vector<Node> nodes_;
  bool busy_ = false;
  bool ack_errors_ = false;
  bool bus_dead_ = false;
  sim::SimTime busy_time_ = 0;      // completed wire time only
  sim::SimTime tx_started_at_ = 0;  // start of the in-flight attempt
  BitErrorModel error_model_;
  std::map<std::uint32_t, MessageStats> stats_;
  FaultStats fault_stats_;
};

}  // namespace aces::can

#endif  // ACES_CAN_BUS_H
