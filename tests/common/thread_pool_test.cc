#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace defl {
namespace {

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int64_t> seen;
  ParallelFor(5, 1, [&](int64_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    seen.push_back(i);
  });
  // One worker: the caller runs every item itself, in index order.
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ZeroAndNegativeParallelismClampToOne) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const int workers : {0, -3}) {
    std::vector<int64_t> seen;
    ParallelFor(5, workers, [&](int64_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller) << "workers " << workers;
      seen.push_back(i);
    });
    EXPECT_EQ(seen, (std::vector<int64_t>{0, 1, 2, 3, 4})) << "workers " << workers;
  }
}

TEST(ThreadPoolTest, EveryItemRunsExactlyOnce) {
  constexpr int64_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  ParallelFor(kCount, 4, [&](int64_t i) { hits[i].fetch_add(1); });
  for (int64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "item " << i;
  }
}

TEST(ThreadPoolTest, ZeroCountIsANoop) {
  std::atomic<int> ran{0};
  ParallelFor(0, 4, [&](int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolTest, SingleItemRunsOnCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  ParallelFor(1, 4, [&](int64_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, BackToBackJobsDoNotLeakItems) {
  // Calls in a row share nothing: no item of one call runs in another.
  for (int round = 0; round < 200; ++round) {
    const int64_t count = 1 + round % 7;
    std::vector<std::atomic<int>> hits(count);
    ParallelFor(count, 4, [&](int64_t i) { hits[i].fetch_add(1); });
    for (int64_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " item " << i;
    }
  }
}

TEST(ThreadPoolTest, ShardedSumMatchesSequential) {
  // The usage pattern of AnswerBatch and the sweep orchestrator: workers
  // fill disjoint slots, the caller folds them in canonical order after the
  // join.
  constexpr int64_t kItems = 4096;
  std::vector<double> values(kItems);
  for (int64_t i = 0; i < kItems; ++i) {
    values[i] = 1.0 / static_cast<double>(i + 1);
  }
  const double sequential = std::accumulate(values.begin(), values.end(), 0.0);

  constexpr int64_t kChunk = 64;
  const int64_t chunks = (kItems + kChunk - 1) / kChunk;
  std::vector<double> slot(kItems, 0.0);
  ParallelFor(chunks, 7, [&](int64_t c) {
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
  std::mutex mu;
  std::set<std::thread::id> ids;
  // Each item spins briefly so the workers have a chance to join in before
  // the caller drains everything; on a loaded single-core machine this may
  // still all land on one thread, so only sanity-check the bounds.
  ParallelFor(64, 4, [&](int64_t) {
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

// This process's live threads, from /proc/self/task; 0 where the
// filesystem does not exist.
int64_t LiveThreads() {
  std::error_code ec;
  const std::filesystem::directory_iterator tasks("/proc/self/task", ec);
  return ec ? 0 : std::distance(tasks, std::filesystem::directory_iterator());
}

TEST(ThreadPoolTest, ThreadsNeverOutnumberItems) {
  // A 3-query batch at --workers=64 starts two threads, not 63. The first
  // thread a process starts may bring a runtime thread of its own (TSan's
  // background thread), so one call runs before the count is taken.
  ParallelFor(2, 2, [](int64_t) {});
  const int64_t before = LiveThreads();
  std::mutex mu;
  std::set<std::thread::id> ids;
  int64_t most_live = 0;
  ParallelFor(3, 64, [&](int64_t) {
    const int64_t live = LiveThreads();
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
    most_live = std::max(most_live, live);
  });
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 3u);
  if (before > 0) {
    EXPECT_LE(most_live, before + 2);
  }
}

}  // namespace
}  // namespace defl
