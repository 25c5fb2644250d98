#include "support/worker_pool.h"

#include <algorithm>
#include <utility>

namespace aces::support {

unsigned resolve_threads(unsigned requested) {
  return requested != 0 ? requested
                        : std::max(1u, std::thread::hardware_concurrency());
}

WorkerPool::WorkerPool(unsigned threads)
    : threads_(resolve_threads(threads)),
      start_(threads_ + 1),
      finish_(threads_ + 1) {
  try {
    for (unsigned i = 0; threads_ > 1 && i < threads_; ++i) {
      workers_.emplace_back([this] { work(); });
    }
  } catch (...) {
    // A thread could not start. The started ones wait at start_ for every
    // worker, so the missing ones drop out before the pool shuts down.
    for (std::size_t i = workers_.size(); i < threads_; ++i) {
      start_.arrive_and_drop();
    }
    stop();
    throw;
  }
}

WorkerPool::~WorkerPool() { stop(); }

void WorkerPool::stop() {
  if (workers_.empty()) {
    return;
  }
  quit_ = true;
  start_.arrive_and_wait();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void WorkerPool::run_on_workers(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  fn_ = &fn;
  n_ = n;
  cursor_.store(0, std::memory_order_relaxed);
  start_.arrive_and_wait();
  finish_.arrive_and_wait();
  if (std::exception_ptr error = std::exchange(error_, nullptr)) {
    std::rethrow_exception(error);
  }
}

void WorkerPool::work() {
  while (true) {
    start_.arrive_and_wait();
    if (quit_) {
      return;
    }
    for (std::size_t i;
         (i = cursor_.fetch_add(1, std::memory_order_relaxed)) < n_;) {
      try {
        (*fn_)(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_m_);
        if (!error_ || i < error_index_) {
          error_ = std::current_exception();
          error_index_ = i;
        }
      }
    }
    finish_.arrive_and_wait();
  }
}

}  // namespace aces::support
