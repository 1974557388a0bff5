#include "support/thread_pool.hpp"

#include <algorithm>
#include <new>
#include <system_error>

#include "support/failpoint.hpp"
#include "support/metrics.hpp"

namespace cfpm {

ThreadPool::ThreadPool(std::size_t num_threads) {
  // Spawns are metered so a test (or a metrics snapshot in production) can
  // assert that single-lane pools never create a thread.
  static const metrics::Counter c_spawn("threadpool.worker.spawn");
  static const metrics::Counter c_spawn_failed("threadpool.worker.spawn_failed");
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads - 1);
  for (std::size_t i = 0; i + 1 < num_threads; ++i) {
    // A thread/memory limit is a capacity problem, not a correctness one:
    // every run_indexed contract holds at any lane count, so degrade to
    // however many workers actually spawned (down to pure inline execution)
    // instead of propagating out of the constructor. The shortfall is
    // visible via num_workers() and the spawn_failed metric.
    try {
      CFPM_FAILPOINT("threadpool.spawn");
      workers_.emplace_back([this] { worker_loop(); });
      c_spawn.add();
    } catch (const std::system_error&) {
      c_spawn_failed.add();
    } catch (const std::bad_alloc&) {
      c_spawn_failed.add();
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_ready_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    drain_indices_locked(lock);
  }
}

void ThreadPool::drain_indices_locked(std::unique_lock<std::mutex>& lock) {
  while (next_index_ < job_count_) {
    const std::size_t i = next_index_++;
    const std::function<void(std::size_t)>* job = job_;
    lock.unlock();
    std::exception_ptr err;
    try {
      CFPM_FAILPOINT("threadpool.task");
      (*job)(i);
    } catch (...) {
      err = std::current_exception();
    }
    lock.lock();
    if (err && !error_) error_ = err;
    if (++completed_ == job_count_) batch_done_.notify_all();
  }
}

void ThreadPool::run_indexed(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) {
      CFPM_FAILPOINT("threadpool.task");
      fn(i);
    }
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  job_ = &fn;
  job_count_ = count;
  next_index_ = 0;
  completed_ = 0;
  error_ = nullptr;
  ++generation_;
  work_ready_.notify_all();
  drain_indices_locked(lock);
  batch_done_.wait(lock, [&] { return completed_ == job_count_; });
  job_ = nullptr;
  job_count_ = 0;
  if (error_) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace cfpm
