#include "common/thread_pool.h"

#include <algorithm>

#include "common/check.h"

namespace step {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) workers_.emplace_back([this] { worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

int ThreadPool::resolve_num_threads(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::submit(std::function<void()> job) {
  STEP_CHECK(job != nullptr);
  {
    MutexLock lock(mu_);
    jobs_.push_back(std::move(job));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::worker_main() {
  bool finished = false;  // a job ran since this worker last held mu_
  for (;;) {
    // Declared per iteration: the finished job's captures are released
    // before its completion is counted.
    std::function<void()> job;
    {
      MutexLock lock(mu_);
      if (finished && --in_flight_ == 0) idle_cv_.notify_all();
      // Hand-rolled predicate loop (see CondVar): sleep until a job is
      // queued or shutdown begins; return only once stopped *and* drained.
      while (!stop_ && jobs_.empty()) work_cv_.wait(mu_);
      if (jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();
    finished = true;
  }
}

void ThreadPool::wait_idle() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) idle_cv_.wait(mu_);
}

void parallel_for(std::size_t n, int requested_threads,
                  const std::function<void(std::size_t)>& fn) {
  const auto threads = std::min<std::size_t>(
      ThreadPool::resolve_num_threads(requested_threads), n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(static_cast<int>(threads));
  for (std::size_t i = 0; i < n; ++i) pool.submit([&fn, i] { fn(i); });
  pool.wait_idle();
}

}  // namespace step
