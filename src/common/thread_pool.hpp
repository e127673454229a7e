// Minimal fixed-size worker pool with a caller-participating parallel_for.
//
// The library starts no thread of its own: every solve and every service
// request runs on its caller's thread. This pool serves tools that run
// independent work items side by side (evvo_fuzz checks whole scenarios and
// replan chains on it).
//
// Design constraints, in order:
//  1. Deterministic decomposition: parallel_for(n, body) always invokes
//     body(0..n-1) exactly once each; which thread runs which index is
//     unspecified, so bodies must own disjoint data per index.
//  2. No deadlock under nesting or pool sharing: the calling thread drains
//     indices alongside the workers, so a parallel_for completes even when
//     every worker is busy with someone else's batch.
//  3. Cheap dispatch: one heap allocation per batch, lock-free index claim.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/lock_ranks.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace evvo::common {

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller of parallel_for is the
  /// remaining thread). `threads <= 1` spawns none and parallel_for runs
  /// inline, bit-for-bit the serial loop.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs body(i) for every i in [0, n). Blocks until all indices finished.
  /// The first exception thrown by any body is rethrown on the caller after
  /// the batch drains. Safe to call concurrently from multiple threads.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// `hint` if positive, else hardware_concurrency (min 1).
  static unsigned resolve_threads(unsigned hint);

 private:
  struct Batch;
  void worker_loop();
  static void run_batch(const std::shared_ptr<Batch>& batch);

  Mutex queue_mutex_{LockRank::kThreadPoolQueue};
  CondVar work_available_;
  std::deque<std::shared_ptr<Batch>> pending_ EVVO_GUARDED_BY(queue_mutex_);
  bool shutdown_ EVVO_GUARDED_BY(queue_mutex_) = false;
  std::vector<std::thread> workers_;  // written only in the ctor/dtor
};

}  // namespace evvo::common
