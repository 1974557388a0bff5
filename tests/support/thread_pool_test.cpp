// ThreadPool basics plus the single-lane fast path: ThreadPool(1) must be a
// pure inline executor — no worker threads spawned (asserted through the
// threadpool.worker.spawn metric), indices run in order on the calling
// thread, and exceptions propagate as they do from the pooled path.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/failpoint.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"

namespace cfpm {
namespace {

std::uint64_t spawn_count() {
  return metrics::snapshot().counter("threadpool.worker.spawn");
}

std::uint64_t spawn_failed_count() {
  return metrics::snapshot().counter("threadpool.worker.spawn_failed");
}

TEST(ThreadPool, SingleLanePoolSpawnsNoThreads) {
  const std::uint64_t before = spawn_count();
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_workers(), 0u);
  EXPECT_EQ(pool.num_threads(), 1u);

  // Inline execution: every index runs on the calling thread, in order
  // (the pooled path makes no ordering promise; the inline path does run
  // ascending, and stream_trace's single-lane case relies on staying on
  // this thread).
  const std::thread::id self = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.run_indexed(16, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), self);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);

  EXPECT_EQ(spawn_count(), before) << "ThreadPool(1) spawned a thread";
}

TEST(ThreadPool, MultiLanePoolSpawnsCountMinusOneWorkers) {
  const std::uint64_t before = spawn_count();
  {
    ThreadPool pool(3);
    EXPECT_EQ(pool.num_workers(), 2u);
    EXPECT_EQ(pool.num_threads(), 3u);
    std::atomic<std::size_t> sum{0};
    pool.run_indexed(100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 99u * 100u / 2u);
  }
  EXPECT_EQ(spawn_count(), before + 2);
}

TEST(ThreadPool, InlinePathPropagatesExceptions) {
  ThreadPool pool(1);
  std::size_t ran = 0;
  EXPECT_THROW(pool.run_indexed(8,
                                [&](std::size_t i) {
                                  ++ran;
                                  if (i == 3) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The inline loop stops at the throwing index (nothing to drain).
  EXPECT_EQ(ran, 4u);
}

TEST(ThreadPool, PooledPathPropagatesOneException) {
  ThreadPool pool(4);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(pool.run_indexed(64,
                                [&](std::size_t i) {
                                  ++ran;
                                  if (i % 7 == 0) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // Every index still executed: the batch drains before rethrowing.
  EXPECT_EQ(ran.load(), 64u);
}

TEST(ThreadPool, ZeroCountIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.run_indexed(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

// ---------------------------------------------------------------------------
// Spawn-failure degradation: a thread/memory limit at construction time is a
// capacity problem, not a correctness one. The pool keeps whatever workers
// it managed to create (down to pure inline execution) and run_indexed's
// contract is unchanged.
// ---------------------------------------------------------------------------

TEST(ThreadPool, SpawnFailureDegradesToFewerWorkers) {
  failpoint::disarm_all();
  const std::uint64_t failed_before = spawn_failed_count();
  failpoint::arm_from_spec("threadpool.spawn=throw_bad_alloc:1");
  ThreadPool pool(4);  // 3 spawn attempts; the first is shot down
  failpoint::disarm_all();
  EXPECT_EQ(pool.num_workers(), 2u);
  EXPECT_EQ(pool.num_threads(), 3u);
  EXPECT_EQ(spawn_failed_count(), failed_before + 1);

  // The degraded pool still runs every index exactly once.
  std::atomic<std::size_t> sum{0};
  pool.run_indexed(100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 99u * 100u / 2u);
}

TEST(ThreadPool, AllSpawnsFailingDegradesToInlineExecution) {
  failpoint::disarm_all();
  failpoint::arm_from_spec("threadpool.spawn=throw_bad_alloc:0");
  ThreadPool pool(4);
  failpoint::disarm_all();
  EXPECT_EQ(pool.num_workers(), 0u);
  EXPECT_EQ(pool.num_threads(), 1u);

  // workers_.empty() routes through the inline path: calling thread only.
  const std::thread::id self = std::this_thread::get_id();
  std::size_t ran = 0;
  pool.run_indexed(8, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), self);
    ++ran;
  });
  EXPECT_EQ(ran, 8u);
}

}  // namespace
}  // namespace cfpm
