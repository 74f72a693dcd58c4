// Epoch/arena memory for the simulation hot loop (DESIGN.md §14).
//
// The simulator's per-event and per-tick scratch objects do not have
// individual lifetimes -- phases do (SNIPPETS.md snippet 1, temporal-slab):
// trace records live until the trace is cleared, per-probe scratch lives for
// one placement probe. EpochArena exploits that: allocation is a
// bump-pointer walk over pooled blocks, and ResetEpoch() retires every block
// to an internal free pool in O(blocks) with no destructor walk. After the
// first epoch has sized the pool, steady-state epochs perform ZERO
// operating-system allocations; the os_allocations() counter makes that
// testable and CI-gateable.
//
// Not thread-safe: one arena belongs to one simulation thread.
#ifndef SRC_COMMON_EPOCH_ARENA_H_
#define SRC_COMMON_EPOCH_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace defl {

class EpochArena {
 public:
  // Usable bytes per pooled block. Oversized requests get a dedicated block
  // (the fallback path) that is released back to the OS at the next reset.
  static constexpr size_t kDefaultBlockBytes = 64 * 1024;

  explicit EpochArena(size_t block_bytes = kDefaultBlockBytes);
  EpochArena(const EpochArena&) = delete;
  EpochArena& operator=(const EpochArena&) = delete;
  ~EpochArena();

  // Bump-allocates `size` bytes aligned to `align` (a power of two, at most
  // alignof(std::max_align_t)). Never returns nullptr; size 0 yields a
  // one-byte reservation so distinct calls return distinct pointers.
  void* Allocate(size_t size, size_t align = alignof(std::max_align_t));

  // Typed allocation. Arena objects are never destroyed individually --
  // ResetEpoch drops them wholesale -- so T must be trivially destructible.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "EpochArena never runs destructors; T must not need one");
    void* p = Allocate(sizeof(T), alignof(T));
    return new (p) T(std::forward<Args>(args)...);
  }

  // Typed array allocation (value-initialized). Same triviality contract.
  template <typename T>
  T* NewArray(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "EpochArena never runs destructors; T must not need one");
    void* p = Allocate(sizeof(T) * count, alignof(T));
    return new (p) T[count]();
  }

  // Ends the current epoch: every pooled block (full or current) returns to
  // the free pool for reuse, oversized blocks are released, and the next
  // Allocate starts bumping from recycled memory. Invalidates every pointer
  // the arena has handed out.
  void ResetEpoch();

  // --- Introspection (tests and the CI allocation gate) ---
  // Completed epochs (ResetEpoch calls).
  int64_t epochs() const { return epochs_; }
  // Bytes bump-allocated since the last reset (including alignment padding).
  size_t epoch_bytes() const { return epoch_bytes_; }
  // Blocks currently parked in the free pool.
  size_t free_blocks() const { return free_blocks_.size(); }
  // Cumulative block requests that went to the operating system. Flat across
  // steady-state epochs -- the allocation-free invariant.
  int64_t os_allocations() const { return os_allocations_; }
  // Cumulative oversized (> block size) fallback allocations.
  int64_t oversized_allocations() const { return oversized_allocations_; }

 private:
  struct Block {
    std::unique_ptr<unsigned char[]> data;
    size_t capacity = 0;
  };

  // Starts a fresh bump region able to hold `min_bytes`, recycling a pooled
  // block when one exists (pooled blocks all have capacity block_bytes_).
  void StartBlock(size_t min_bytes);

  size_t block_bytes_;
  std::vector<Block> used_blocks_;  // exhausted + oversized, current epoch
  std::vector<Block> free_blocks_;  // recycled, ready for reuse
  Block current_;
  size_t cursor_ = 0;  // bump offset into current_

  int64_t epochs_ = 0;
  size_t epoch_bytes_ = 0;
  int64_t os_allocations_ = 0;
  int64_t oversized_allocations_ = 0;
};

}  // namespace defl

#endif  // SRC_COMMON_EPOCH_ARENA_H_
