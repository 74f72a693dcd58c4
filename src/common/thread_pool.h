// Fixed-size fork-join thread pool for work items that share no mutable
// state: the what-if service's query batches and sweep cells (DESIGN.md
// §10). A cluster simulation itself always runs on one thread. Deliberately
// minimal: no work stealing, no task queue -- one blocking ParallelFor at a
// time, items claimed from an atomic cursor.
//
// Determinism contract: the pool makes NO ordering promises about which
// worker runs which item or in what order items execute. Callers must
// therefore (a) give each item exclusive ownership of the state it touches
// (item ownership -- no locks on the hot path), and (b) fold the per-item
// results on the calling thread in a fixed canonical order, or use only
// order-independent reductions (argmax with a total-order tie-break).
// Under that contract, results are byte-identical for every pool size,
// including the inline (single-thread) pool.
#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace defl {

class ThreadPool {
 public:
  // `parallelism` is the total number of threads that execute a ParallelFor,
  // including the caller: a pool of parallelism N spawns N-1 workers.
  // Values <= 1 spawn nothing and ParallelFor runs inline.
  explicit ThreadPool(int parallelism);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int parallelism() const { return parallelism_; }

  // Invokes fn(i) exactly once for every i in [0, count), distributing items
  // across the workers and the calling thread, and returns when all items
  // have finished. With no workers (parallelism <= 1) the loop runs inline
  // in ascending order. fn must not throw and must not call ParallelFor on
  // the same pool (no nesting).
  void ParallelFor(int64_t count, const std::function<void(int64_t)>& fn);

 private:
  void WorkerLoop();
  // Claims and runs items of the current job until the cursor is exhausted;
  // returns how many items this thread ran.
  int64_t DrainCurrentJob(const std::function<void(int64_t)>& fn);

  const int parallelism_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable wake_;   // workers: a new job or stop
  std::condition_variable done_;   // caller: all items finished, drains done
  uint64_t generation_ = 0;        // bumped per ParallelFor, guarded by mu_
  const std::function<void(int64_t)>* job_ = nullptr;  // guarded by mu_
  int64_t job_count_ = 0;          // guarded by mu_ writes; read while draining
  std::atomic<int64_t> next_cursor_{0};
  int64_t completed_ = 0;  // items finished this job, guarded by mu_
  int64_t draining_ = 0;   // workers inside DrainCurrentJob, guarded by mu_
  bool stop_ = false;      // guarded by mu_
};

}  // namespace defl

#endif  // SRC_COMMON_THREAD_POOL_H_
