#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace defl {

void ParallelFor(int64_t count, int workers, const std::function<void(int64_t)>& fn) {
  // Items are independent (item ownership), so which thread runs which item
  // never matters; the caller's canonical-order merge provides determinism.
  std::atomic<int64_t> cursor{0};
  const auto drain = [&cursor, count, &fn] {
    for (int64_t i = cursor.fetch_add(1, std::memory_order_relaxed); i < count;
         i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  // No helper at workers <= 1 or count <= 1: the caller then runs every
  // item itself, in ascending order. A jthread joins when destroyed, so the
  // helpers are joined on every path out of this scope, before `drain` and
  // `cursor` (declared earlier) go; the join also orders every item's
  // writes before the caller reads them.
  std::vector<std::jthread> helpers;
  for (int64_t t = 1; t < std::min<int64_t>(workers, count); ++t) {
    helpers.emplace_back(drain);
  }
  // The caller drains too, so a host with fewer cores than threads still
  // makes progress.
  drain();
}

}  // namespace defl
