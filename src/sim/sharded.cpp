#include "sim/sharded.h"

#include <algorithm>
#include <utility>

#include "support/check.h"
#include "support/worker_pool.h"

namespace aces::sim {

ShardedSimulation::ShardedSimulation(SimTime quantum) : quantum_(quantum) {
  ACES_CHECK_MSG(quantum >= 1, "co-simulation quantum must be >= 1 ns");
}

ShardedSimulation::~ShardedSimulation() = default;

Shard& ShardedSimulation::add_shard() {
  shards_.push_back(std::make_unique<Shard>(quantum_));
  shards_.back()->index_ = shards_.size() - 1;
  return *shards_.back();
}

void ShardedSimulation::set_lookahead(SimTime delta) {
  ACES_CHECK_MSG(delta >= 1, "cross-shard lookahead must be >= 1 ns");
  lookahead_ = delta;
}

void ShardedSimulation::set_threads(unsigned n) {
  threads_setting_ = n;
  pool_.reset();  // rebuilt lazily at the next epoch
}

unsigned ShardedSimulation::threads() const {
  const unsigned cap =
      static_cast<unsigned>(std::max<std::size_t>(1, shards_.size()));
  return std::min(support::resolve_threads(threads_setting_), cap);
}

SimTime ShardedSimulation::now() const {
  ACES_CHECK_MSG(!shards_.empty(), "ShardedSimulation has no shards");
  return shards_.front()->now();
}

void ShardedSimulation::run_until(SimTime horizon) {
  ACES_CHECK_MSG(!shards_.empty(), "ShardedSimulation has no shards");
  if (shards_.size() == 1) {
    // Single shard: exactly the pre-sharding scheduler, no epochs, no
    // barrier, watchdog installed directly (see set_watchdog).
    shards_.front()->run_until(horizon);
    return;
  }
  run_epochs(horizon);
}

void ShardedSimulation::run_epochs(SimTime horizon) {
  ACES_CHECK_MSG(horizon >= now(), "cannot run the simulation backwards");
  ACES_CHECK_MSG(horizon < kNever, "run_until needs a finite horizon");
  if (tripped_) {
    return;  // matches the serial latch: frozen until a new watchdog
  }
  while (true) {
    // Size the epoch: nothing anywhere can happen before `quiet`, and
    // anything created at t >= quiet reaches another shard no earlier
    // than t + lookahead, so every event strictly before `boundary` is
    // safe to run without hearing from other shards. The max() clamp
    // guarantees progress (a zero-width epoch would spin: run_until(now)
    // does not advance busy participants).
    SimTime quiet = kNever;
    for (const auto& s : shards_) {
      quiet = std::min(quiet, s->next_wake());
    }
    SimTime boundary = horizon + 1;  // horizon inclusive, like run_until
    if (quiet != kNever && lookahead_ != kNever &&
        quiet < boundary - lookahead_) {
      boundary = quiet + lookahead_;
    }
    boundary = std::max(boundary, now() + 1);

    if (watchdog_) {
      // In-epoch livelock backstop, deterministic across thread counts:
      // each shard polls the global check against (everyone else's count
      // snapshotted at this barrier + its own live count). The exact
      // boundary-time evaluation below is the authoritative trip.
      const std::uint64_t total = events_executed();
      for (auto& s : shards_) {
        const std::uint64_t others = total - s->queue().events_executed();
        s->set_watchdog([check = watchdog_, others](std::uint64_t mine) {
          return check(others + mine);
        });
      }
    }
    for (auto& s : shards_) {
      s->epoch_end_ = boundary;
    }
    run_all(boundary - 1);
    ++epochs_;
    if (any_stopped()) {
      tripped_ = true;
      return;
    }
    merge_outboxes(boundary);
    if (watchdog_ && watchdog_(events_executed())) {
      tripped_ = true;
      return;
    }
    if (boundary > horizon) {
      return;
    }
  }
}

void ShardedSimulation::run_all(SimTime target) {
  const unsigned n = threads();
  if (!pool_ || pool_->threads() != n) {
    pool_ = std::make_unique<support::WorkerPool>(n);
  }
  // An exception from any shard (ACES_CHECK throws std::logic_error) is
  // rethrown here once every shard has reached the boundary.
  pool_->run(shards_.size(),
             [this, target](std::size_t k) { shards_[k]->run_until(target); });
}

void ShardedSimulation::merge_outboxes(SimTime boundary) {
  struct Envelope {
    Shard::CrossEvent* event;
    std::size_t source;
    std::size_t seq;
  };
  std::vector<Envelope> all;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    std::vector<Shard::CrossEvent>& out = shards_[k]->outbox_;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (out[i].relaxed) {
        out[i].at = boundary;  // bounded-lateness control-plane marshaling
      }
      ACES_CHECK_MSG(out[i].at >= boundary,
                     "merged cross-shard event predates the epoch boundary");
      all.push_back(Envelope{&out[i], k, i});
    }
  }
  // Deterministic merge order — (timestamp, source shard, post order) —
  // so same-instant cross-shard arrivals get FIFO sequence numbers on the
  // destination queue in an order no thread schedule can change.
  std::sort(all.begin(), all.end(), [](const Envelope& a, const Envelope& b) {
    if (a.event->at != b.event->at) {
      return a.event->at < b.event->at;
    }
    if (a.source != b.source) {
      return a.source < b.source;
    }
    return a.seq < b.seq;
  });
  for (Envelope& env : all) {
    env.event->dst->queue_.schedule_at(env.event->at, std::move(env.event->fn));
  }
  for (auto& s : shards_) {
    s->outbox_.clear();
  }
}

bool ShardedSimulation::any_stopped() const {
  for (const auto& s : shards_) {
    if (s->watchdog_tripped()) {
      return true;
    }
  }
  return false;
}

const Simulation::Stats& ShardedSimulation::stats() const {
  agg_ = Simulation::Stats{};
  for (const auto& s : shards_) {
    const Simulation::Stats& st = s->stats();
    agg_.events_executed += st.events_executed;
    agg_.slices += st.slices;
    agg_.idle_jumps += st.idle_jumps;
    agg_.participants.insert(agg_.participants.end(), st.participants.begin(),
                             st.participants.end());
  }
  return agg_;
}

void ShardedSimulation::reset_stats() {
  for (auto& s : shards_) {
    s->reset_stats();
  }
}

std::uint64_t ShardedSimulation::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->queue().events_executed();
  }
  return total;
}

void ShardedSimulation::set_watchdog(EventQueue::StopCheck check) {
  watchdog_ = std::move(check);
  tripped_ = false;
  for (auto& s : shards_) {
    // Single shard gets the check verbatim (serial semantics, including
    // the latch-clear); multi-shard latches clear here and per-epoch
    // wrappers are installed by run_epochs.
    s->set_watchdog(shards_.size() == 1 ? watchdog_ : EventQueue::StopCheck{});
  }
}

bool ShardedSimulation::watchdog_tripped() const {
  if (shards_.size() == 1) {
    return shards_.front()->watchdog_tripped();
  }
  return tripped_;
}

}  // namespace aces::sim
