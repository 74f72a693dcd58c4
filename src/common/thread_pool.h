// Fork-join loop for work items that share no mutable state: the what-if
// service's query batches and sweep cells (DESIGN.md §10). A cluster
// simulation itself always runs on one thread. Each call starts its own
// threads and joins them before it returns, so nothing outlives the call
// and calls never share state.
//
// Determinism contract: ParallelFor makes NO ordering promises about which
// thread runs which item or in what order items execute. Callers must
// therefore (a) give each item exclusive ownership of the state it touches
// (item ownership -- no locks on the hot path), and (b) fold the per-item
// results on the calling thread in a fixed canonical order, or use only
// order-independent reductions (argmax with a total-order tie-break).
// Under that contract, results are byte-identical for every worker count,
// including the inline (single-thread) run.
#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <functional>

namespace defl {

// Invokes fn(i) exactly once for every i in [0, count) and returns when all
// items have finished. `workers` is the most threads that run items,
// including the caller: the call starts min(workers, count) - 1 threads,
// and they and the caller claim items from one atomic cursor. With
// workers <= 1 (or one item) every item runs inline on the caller in
// ascending order. fn must not throw.
void ParallelFor(int64_t count, int workers, const std::function<void(int64_t)>& fn);

}  // namespace defl

#endif  // SRC_COMMON_THREAD_POOL_H_
