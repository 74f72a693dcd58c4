#include "src/common/thread_pool.h"

#include <cstdlib>

#include "src/common/logging.h"

namespace defl {

ThreadPool::ThreadPool(int parallelism) : parallelism_(parallelism < 1 ? 1 : parallelism) {
  workers_.reserve(static_cast<size_t>(parallelism_ - 1));
  for (int i = 1; i < parallelism_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

int64_t ThreadPool::DrainCurrentJob(const std::function<void(int64_t)>& fn) {
  // Claim items one at a time from the shared cursor. Items are independent
  // (item ownership), so which thread runs which item never matters; the
  // caller's canonical-order merge provides determinism.
  int64_t ran = 0;
  for (;;) {
    const int64_t i = next_cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= job_count_) {
      break;
    }
    fn(i);
    ++ran;
  }
  return ran;
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(int64_t)>* fn = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [&] {
        return stop_ || (job_ != nullptr && generation_ != seen_generation);
      });
      if (stop_) {
        return;
      }
      seen_generation = generation_;
      fn = job_;
      // Committing under the lock is what lets ParallelFor wait for every
      // worker that joined this job to leave before recycling the cursor:
      // a late waker can never claim items of a newer job with an old fn.
      ++draining_;
    }
    const int64_t ran = DrainCurrentJob(*fn);
    {
      std::lock_guard<std::mutex> lock(mu_);
      completed_ += ran;
      --draining_;
    }
    done_.notify_one();
  }
}

void ThreadPool::ParallelFor(int64_t count, const std::function<void(int64_t)>& fn) {
  if (count <= 0) {
    return;
  }
  if (workers_.empty() || count == 1) {
    for (int64_t i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (job_ != nullptr) {
      // Nested or concurrent ParallelFor on one pool would hand workers a
      // dangling fn / recycled cursor; the pool is exposed to external
      // drivers, so misuse must fail loudly even in release builds.
      DEFL_LOG(kError) << "ThreadPool::ParallelFor does not nest and is not "
                          "reentrant; a job is already running on this pool";
      std::abort();
    }
    job_ = &fn;
    job_count_ = count;
    completed_ = 0;
    next_cursor_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  wake_.notify_all();
  // The caller participates too; on a host with fewer cores than threads
  // this also guarantees forward progress.
  const int64_t ran = DrainCurrentJob(fn);
  {
    std::unique_lock<std::mutex> lock(mu_);
    completed_ += ran;
    done_.wait(lock, [&] { return completed_ == job_count_ && draining_ == 0; });
    job_ = nullptr;
  }
}

}  // namespace defl
