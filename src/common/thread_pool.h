#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace step {

/// Small thread pool for fanning out independent solver jobs (one per PO
/// cone in the circuit driver; see core/circuit_driver.h).
///
/// One FIFO queue under one mutex: jobs start in submission order on any
/// worker count. Jobs must not share mutable state unless they synchronize
/// themselves — the decomposition engines qualify because every
/// BiDecomposer call owns its private Solver/CEGAR contexts.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(int num_threads);

  /// Drains every queued job, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job at the back of the queue. Safe from any thread,
  /// including a worker running a job.
  void submit(std::function<void()> job);

  /// Blocks until every submitted job (including ones submitted while
  /// waiting) has finished. The pool is reusable afterwards.
  void wait_idle();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Resolves a user-facing `-j` request: n >= 1 is taken literally,
  /// anything else means "one worker per hardware thread".
  static int resolve_num_threads(int requested);

 private:
  void worker_main();

  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar work_cv_;  ///< signals workers: job queued / stop
  CondVar idle_cv_;  ///< signals wait_idle(): all jobs done
  std::deque<std::function<void()>> jobs_ STEP_GUARDED_BY(mu_);
  int in_flight_ STEP_GUARDED_BY(mu_) = 0;  ///< submitted, not yet completed
  bool stop_ STEP_GUARDED_BY(mu_) = false;
};

/// Calls fn(i) for every i in [0, n) and returns once all calls are done.
/// The `-j` request is resolved (see ThreadPool::resolve_num_threads) and
/// clamped to n: at one thread the calls run inline in index order,
/// otherwise on a pool, one job per index submitted in index order.
void parallel_for(std::size_t n, int requested_threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace step
