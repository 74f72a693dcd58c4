#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace defl {
namespace {

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.parallelism(), 1);
  std::vector<int64_t> seen;
  pool.ParallelFor(5, [&](int64_t i) { seen.push_back(i); });
  // No workers: the caller runs every item itself, in index order.
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ZeroAndNegativeParallelismClampToOne) {
  ThreadPool zero(0);
  EXPECT_EQ(zero.parallelism(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.parallelism(), 1);
}

TEST(ThreadPoolTest, EveryItemRunsExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.parallelism(), 4);
  constexpr int64_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](int64_t i) { hits[i].fetch_add(1); });
  for (int64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "item " << i;
  }
}

TEST(ThreadPoolTest, ZeroCountIsANoop) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  pool.ParallelFor(0, [&](int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolTest, SingleItemRunsOnCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.ParallelFor(1, [&](int64_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, BackToBackJobsDoNotLeakItems) {
  // Regression guard for the stale-waker hazard: a worker that wakes late
  // for job G must never claim items of job G+1 with job G's function.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    const int64_t count = 1 + round % 7;
    std::vector<std::atomic<int>> hits(count);
    pool.ParallelFor(count, [&](int64_t i) { hits[i].fetch_add(1); });
    for (int64_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " item " << i;
    }
  }
}

TEST(ThreadPoolTest, ShardedSumMatchesSequential) {
  // The usage pattern of AnswerBatch and the sweep orchestrator: workers
  // fill disjoint slots, the caller folds them in canonical order after the
  // barrier.
  constexpr int64_t kItems = 4096;
  std::vector<double> values(kItems);
  for (int64_t i = 0; i < kItems; ++i) {
    values[i] = 1.0 / static_cast<double>(i + 1);
  }
  const double sequential = std::accumulate(values.begin(), values.end(), 0.0);

  ThreadPool pool(7);
  constexpr int64_t kChunk = 64;
  const int64_t chunks = (kItems + kChunk - 1) / kChunk;
  std::vector<double> slot(kItems, 0.0);
  pool.ParallelFor(chunks, [&](int64_t c) {
    const int64_t begin = c * kChunk;
    const int64_t end = std::min(begin + kChunk, kItems);
    for (int64_t i = begin; i < end; ++i) {
      slot[i] = values[i];
    }
  });
  double folded = 0.0;
  for (const double v : slot) {
    folded += v;
  }
  // Same flat left-to-right fold => bitwise-identical double.
  EXPECT_EQ(folded, sequential);
}

TEST(ThreadPoolTest, UsesMultipleThreadsForLargeJobs) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> ids;
  // Each item spins briefly so the workers have a chance to join in before
  // the caller drains everything; on a loaded single-core machine this may
  // still all land on one thread, so only sanity-check the bounds.
  pool.ParallelFor(64, [&](int64_t) {
    volatile uint64_t x = 0;
    for (int i = 0; i < 20000; ++i) {
      x = x + static_cast<uint64_t>(i);
    }
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 4u);
}

}  // namespace
}  // namespace defl
