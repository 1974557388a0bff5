// Fixed-size worker pool for data-parallel loops.
//
// The pool exists to shard deterministic batch work (trace evaluation,
// experiment grids) without paying thread creation per call. Determinism is
// the caller's contract: work must be split into chunks whose boundaries do
// not depend on the thread count, with per-chunk results written to
// per-chunk slots and reduced in chunk order afterwards — then the outcome
// is bit-identical for any pool size (see power::stream_trace, the one
// trace loop behind PowerModel::estimate_trace and chip::evaluate_trace).
// A pool without workers, or a one-index batch, runs inline on the caller
// in index order: no queue, no mutex, but the `threadpool.task` failpoint
// still guards every index.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cfpm {

class ThreadPool {
 public:
  /// A pool of `num_threads` total execution lanes, the calling thread
  /// included (so ThreadPool(1) spawns nothing and runs inline).
  /// 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (workers + the calling thread).
  std::size_t num_threads() const noexcept { return workers_.size() + 1; }

  /// Spawned worker threads: at most num_threads() - 1, and 0 for
  /// ThreadPool(1) — the single-lane pool is a pure inline executor (no
  /// threads, and run_indexed never touches the pool mutex). May be lower
  /// than requested when std::thread construction fails (resource limits):
  /// the constructor degrades to the workers that did spawn instead of
  /// throwing, counting each loss in `threadpool.worker.spawn_failed`.
  /// Regression-tested.
  std::size_t num_workers() const noexcept { return workers_.size(); }

  /// Invokes fn(i) once for every i in [0, count), distributed over the
  /// pool; the calling thread participates. Blocks until all indices are
  /// done. Which thread runs which index is unspecified. If any invocation
  /// throws, one of the exceptions is rethrown here after the batch drains.
  void run_indexed(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  /// Claims and runs indices of the current batch until none remain.
  /// Expects `lock` held; releases it around each fn invocation.
  void drain_indices_locked(std::unique_lock<std::mutex>& lock);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_count_ = 0;
  std::size_t next_index_ = 0;   // guarded by mutex_
  std::size_t completed_ = 0;    // guarded by mutex_
  std::uint64_t generation_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
};

}  // namespace cfpm
