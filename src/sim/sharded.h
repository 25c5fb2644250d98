// Sharded parallel co-simulation: N shard-local schedulers (sim::Shard)
// advanced in lock-stepped epochs on a worker pool.
//
// Conservative PDES with the gateway's store-and-forward latency as the
// lookahead: nothing a shard does before the epoch boundary can affect
// another shard until at least `lookahead` later, so every shard may run
// one epoch without hearing from the others. Epochs are sized adaptively —
// the next boundary is min(horizon+1, quietest-next-wake + lookahead) — so
// an idle fleet still jumps in O(1) instead of ticking epoch by epoch.
//
// Cross-shard traffic travels through per-shard outboxes, drained at each
// barrier and scheduled in a deterministic merge order (timestamp, source
// shard, post order). Double runs are therefore bit-identical at any
// thread count: threads only decide WHO runs a shard, never WHAT order
// events fire in.
//
// A single-shard topology short-circuits run_until straight to
// Shard::run_until — byte-for-byte the pre-sharding scheduler.
#ifndef ACES_SIM_SHARDED_H
#define ACES_SIM_SHARDED_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulation.h"
#include "support/worker_pool.h"

namespace aces::sim {

class ShardedSimulation {
 public:
  explicit ShardedSimulation(SimTime quantum = 50 * kMicrosecond);
  ~ShardedSimulation();
  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  // Adds one shard (before the first run). Shard indices are assignment
  // order and define the cross-shard merge tie-break.
  Shard& add_shard();
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] Shard& shard(std::size_t k) { return *shards_.at(k); }

  // Minimum latency over all cross-shard edges (ns). kNever (default)
  // means the shards are fully independent: one epoch runs straight to
  // the horizon. Must be >= 1 when any cross-shard traffic exists.
  void set_lookahead(SimTime delta);
  [[nodiscard]] SimTime lookahead() const noexcept { return lookahead_; }

  // Worker threads for the epoch fan-out (a support::WorkerPool). 0
  // (default) = min(hardware threads, shard count); 1 = run every shard on
  // the calling thread (identical results — thread count never changes
  // event order).
  void set_threads(unsigned n);
  [[nodiscard]] unsigned threads() const;  // resolved count

  // Advances every shard to `horizon` (inclusive, like Shard::run_until).
  void run_until(SimTime horizon);
  void run_for(SimTime delta) { run_until(now() + delta); }
  [[nodiscard]] SimTime now() const;

  // Aggregated scheduler stats: counters summed, participants
  // concatenated in shard order. Rebuilt on each call; the reference
  // stays valid until the next stats() call.
  [[nodiscard]] const Simulation::Stats& stats() const;
  void reset_stats();
  [[nodiscard]] std::uint64_t events_executed() const;

  // Cooperative watchdog over the TOTAL event count, deterministic across
  // thread and shard counts: the check is evaluated against the exact
  // global count at every epoch boundary, and each shard additionally
  // polls it in-epoch against (other shards' boundary snapshot + own
  // count) as a livelock backstop. The check may be called concurrently
  // from shard threads — it must be thread-safe (pure functions of the
  // count, like the campaign's, are).
  void set_watchdog(EventQueue::StopCheck check);
  [[nodiscard]] bool watchdog_tripped() const;

  [[nodiscard]] SimTime quantum() const noexcept { return quantum_; }
  // Synchronization barriers executed so far (observability).
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epochs_; }

 private:
  void run_epochs(SimTime horizon);
  void run_all(SimTime target);
  void merge_outboxes(SimTime boundary);
  [[nodiscard]] bool any_stopped() const;

  SimTime quantum_;
  SimTime lookahead_ = kNever;
  unsigned threads_setting_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  EventQueue::StopCheck watchdog_;
  bool tripped_ = false;
  std::uint64_t epochs_ = 0;
  mutable Simulation::Stats agg_;
  std::unique_ptr<support::WorkerPool> pool_;  // built at the first epoch
};

}  // namespace aces::sim

#endif  // ACES_SIM_SHARDED_H
