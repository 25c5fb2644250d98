// support::WorkerPool — the library's one worker pool, shared by the
// sharded scheduler (shards per epoch) and the campaign runner (variants).
//
// run(n, fn) calls fn(i) exactly once for every i < n on persistent
// threads and returns when all calls have finished. Indices come from a
// shared cursor, so who runs an index is a scheduling accident; callers
// store results by index, which keeps them independent of thread count.
// Exceptions never escape a worker: every index still runs, and the
// exception of the lowest throwing index — the one a one-thread run would
// meet first, of whatever type — is rethrown on the caller afterwards.
// A one-thread pool starts no thread and runs fn(0), fn(1), ... in order
// on the calling thread, calling fn directly: the callable is type-erased
// only when it is handed to worker threads (the sharded scheduler runs a
// batch every epoch, so the inline path is kept to a plain loop).
#ifndef ACES_SUPPORT_WORKER_POOL_H
#define ACES_SUPPORT_WORKER_POOL_H

#include <atomic>
#include <barrier>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace aces::support {

// A thread-count setting as the library reads it: 0 means one per
// hardware thread (at least 1), anything else is taken as given.
[[nodiscard]] unsigned resolve_threads(unsigned requested);

class WorkerPool {
 public:
  explicit WorkerPool(unsigned threads);  // resolved by resolve_threads
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  // One batch at a time: not reentrant, not callable from inside fn.
  template <class Fn>
  void run(std::size_t n, Fn&& fn) {
    if (!workers_.empty()) {
      run_on_workers(n, std::ref(fn));
      return;
    }
    // Inline, in index order: the first exception is the lowest-index one.
    std::exception_ptr error;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!error) {
          error = std::current_exception();
        }
      }
    }
    if (error) {
      std::rethrow_exception(error);
    }
  }

 private:
  void run_on_workers(std::size_t n,
                      const std::function<void(std::size_t)>& fn);
  void work();
  void stop();  // ends and joins the workers

  const unsigned threads_;
  // Caller plus workers meet at `start_` once a batch (or shutdown) is
  // published and at `finish_` once it is done.
  std::barrier<> start_;
  std::barrier<> finish_;
  bool quit_ = false;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::size_t> cursor_{0};
  std::mutex error_m_;
  std::exception_ptr error_;  // lowest-index exception, under error_m_
  std::size_t error_index_ = 0;
  std::vector<std::thread> workers_;  // empty for a one-thread pool
};

}  // namespace aces::support

#endif  // ACES_SUPPORT_WORKER_POOL_H
