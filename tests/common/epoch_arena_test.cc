#include "src/common/epoch_arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

namespace defl {
namespace {

TEST(EpochArenaTest, AllocationsAreDistinctAndWritable) {
  EpochArena arena;
  std::set<void*> seen;
  for (int i = 0; i < 100; ++i) {
    void* p = arena.Allocate(16);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate pointer before reset";
    std::memset(p, 0xAB, 16);
  }
  EXPECT_GE(arena.epoch_bytes(), 1600u);
}

TEST(EpochArenaTest, ZeroSizedAllocationsStayDistinct) {
  EpochArena arena;
  void* a = arena.Allocate(0);
  void* b = arena.Allocate(0);
  EXPECT_NE(a, b);
}

TEST(EpochArenaTest, RespectsAlignment) {
  EpochArena arena;
  arena.Allocate(1, 1);  // skew the cursor
  for (const size_t align : {size_t{1}, size_t{2}, size_t{4}, size_t{8}, size_t{16}}) {
    void* p = arena.Allocate(3, align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u) << "align " << align;
    arena.Allocate(1, 1);  // re-skew between checks
  }
}

TEST(EpochArenaTest, ResetRecyclesBlocksWithZeroSteadyStateOsAllocations) {
  EpochArena arena(/*block_bytes=*/1024);
  // Epoch 0 sizes the pool: force several blocks.
  for (int i = 0; i < 10; ++i) {
    arena.Allocate(512);
  }
  arena.ResetEpoch();
  const int64_t baseline = arena.os_allocations();
  EXPECT_GT(baseline, 0);
  EXPECT_GT(arena.free_blocks(), 0u);
  // Steady state: identical epochs must never go back to the OS.
  for (int epoch = 0; epoch < 50; ++epoch) {
    for (int i = 0; i < 10; ++i) {
      arena.Allocate(512);
    }
    arena.ResetEpoch();
  }
  EXPECT_EQ(arena.os_allocations(), baseline);
  EXPECT_EQ(arena.epochs(), 51);
  EXPECT_EQ(arena.epoch_bytes(), 0u);
}

TEST(EpochArenaTest, OversizedAllocationFallsBackToDedicatedBlock) {
  EpochArena arena(/*block_bytes=*/256);
  void* small = arena.Allocate(64);
  ASSERT_NE(small, nullptr);
  void* big = arena.Allocate(4096);  // > block size
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xCD, 4096);
  EXPECT_EQ(arena.oversized_allocations(), 1);
  // The bump region continues after the oversized block without losing data.
  void* next = arena.Allocate(64);
  ASSERT_NE(next, nullptr);
  arena.ResetEpoch();
  // Oversized blocks are released, not pooled: a fresh oversized request
  // must go back to the OS while normal blocks recycle.
  const int64_t os_before = arena.os_allocations();
  arena.Allocate(64);
  EXPECT_EQ(arena.os_allocations(), os_before);  // recycled pooled block
  arena.Allocate(4096);
  EXPECT_EQ(arena.os_allocations(), os_before + 1);
  EXPECT_EQ(arena.oversized_allocations(), 2);
}

TEST(EpochArenaTest, TypedNewConstructsInPlace) {
  struct Pod {
    int a;
    double b;
  };
  EpochArena arena;
  Pod* pod = arena.New<Pod>(Pod{7, 2.5});
  EXPECT_EQ(pod->a, 7);
  EXPECT_DOUBLE_EQ(pod->b, 2.5);
  int* xs = arena.NewArray<int>(128);
  for (int i = 0; i < 128; ++i) {
    EXPECT_EQ(xs[i], 0);
    xs[i] = i;
  }
  EXPECT_EQ(xs[127], 127);
}

}  // namespace
}  // namespace defl
