// Unit tests for the exec/ work-stealing runtime: the Chase–Lev deque's
// exactly-once removal guarantee, fork/join correctness (including nested
// forks and external-thread participation), and the owning-thread
// assertion.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "exec/deque.h"
#include "exec/task_pool.h"
#include "gtest/gtest.h"
#include "util/thread_check.h"

namespace ctsdd {
namespace {

TEST(WorkStealingDequeTest, OwnerLifoThiefFifo) {
  exec::WorkStealingDeque deque;
  int items[4] = {0, 1, 2, 3};
  for (int& item : items) deque.Push(&item);
  // Owner pops newest first.
  EXPECT_EQ(deque.Pop(), &items[3]);
  // A thief steals oldest first.
  EXPECT_EQ(deque.Steal(), &items[0]);
  EXPECT_EQ(deque.Pop(), &items[2]);
  EXPECT_EQ(deque.Steal(), &items[1]);
  EXPECT_EQ(deque.Pop(), nullptr);
  EXPECT_EQ(deque.Steal(), nullptr);
}

TEST(WorkStealingDequeTest, GrowsPastInitialCapacity) {
  exec::WorkStealingDeque deque(8);
  std::vector<int> items(1000);
  for (int& item : items) deque.Push(&item);
  for (int i = 999; i >= 0; --i) EXPECT_EQ(deque.Pop(), &items[i]);
  EXPECT_EQ(deque.Pop(), nullptr);
}

// Every pushed item is removed exactly once across a racing owner
// (push/pop) and two thieves.
TEST(WorkStealingDequeTest, ExactlyOnceUnderContention) {
  constexpr int kItems = 20000;
  exec::WorkStealingDeque deque;
  std::vector<std::atomic<int>> claimed(kItems);
  for (auto& c : claimed) c.store(0);
  std::vector<int> payload(kItems);
  std::iota(payload.begin(), payload.end(), 0);
  std::atomic<bool> done{false};
  auto thief = [&] {
    while (!done.load(std::memory_order_acquire)) {
      if (void* item = deque.Steal()) {
        claimed[*static_cast<int*>(item)].fetch_add(1);
      }
    }
    while (void* item = deque.Steal()) {
      claimed[*static_cast<int*>(item)].fetch_add(1);
    }
  };
  std::thread t1(thief), t2(thief);
  // Owner: push everything, popping intermittently.
  for (int i = 0; i < kItems; ++i) {
    deque.Push(&payload[i]);
    if (i % 3 == 0) {
      if (void* item = deque.Pop()) {
        claimed[*static_cast<int*>(item)].fetch_add(1);
      }
    }
  }
  while (void* item = deque.Pop()) {
    claimed[*static_cast<int*>(item)].fetch_add(1);
  }
  done.store(true, std::memory_order_release);
  t1.join();
  t2.join();
  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(claimed[i].load(), 1) << "item " << i;
  }
}

TEST(TaskPoolTest, SingleWorkerRunsInline) {
  exec::TaskPool pool(1);
  EXPECT_FALSE(pool.parallel());
  std::atomic<int> sum{0};
  exec::ParallelFor(&pool, 100, [&](size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(TaskPoolTest, ParallelForCoversEveryIndexOnce) {
  exec::TaskPool pool(4);
  constexpr size_t kN = 5000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  exec::ParallelFor(&pool, kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// Nested fork-join: a recursive sum over a binary split, forking at every
// level through ParallelFor (the semantic compiler's nesting pattern).
// Exercises help-while-joining (a joiner must run other tasks, not
// deadlock, when its forked half was stolen).
uint64_t RecursiveSum(exec::TaskPool* pool, uint64_t lo, uint64_t hi) {
  if (hi - lo <= 64) {
    uint64_t total = 0;
    for (uint64_t i = lo; i < hi; ++i) total += i;
    return total;
  }
  const uint64_t mid = lo + (hi - lo) / 2;
  uint64_t halves[2] = {0, 0};
  exec::ParallelFor(pool, 2, [&](size_t i) {
    halves[i] = i == 0 ? RecursiveSum(pool, lo, mid)
                       : RecursiveSum(pool, mid, hi);
  });
  return halves[0] + halves[1];
}

TEST(TaskPoolTest, NestedForkJoin) {
  exec::TaskPool pool(4);
  constexpr uint64_t kN = 1 << 16;
  EXPECT_EQ(RecursiveSum(&pool, 0, kN), kN * (kN - 1) / 2);
}

TEST(TaskPoolTest, ReusableAcrossManyJoins) {
  exec::TaskPool pool(3);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> sum{0};
    exec::ParallelFor(&pool, 16, [&](size_t i) {
      sum.fetch_add(static_cast<int>(i) + round, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 120 + 16 * round);
  }
}

TEST(TaskPoolTest, ManyPoolsSequentially) {
  // Pools created and destroyed in sequence must not confuse the
  // thread-local slot records (pool identity, not address, is the key).
  for (int i = 0; i < 8; ++i) {
    exec::TaskPool pool(2);
    std::atomic<int> sum{0};
    exec::ParallelFor(&pool, 32, [&](size_t) { sum.fetch_add(1); });
    ASSERT_EQ(sum.load(), 32);
  }
}

#ifndef NDEBUG
TEST(ThreadCheckDeathTest, SecondThreadAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ThreadChecker checker;
  checker.Check();
  EXPECT_DEATH(
      {
        std::thread other([&] { checker.Check(); });
        other.join();
      },
      "single-threaded component");
}
#endif  // NDEBUG

}  // namespace
}  // namespace ctsdd
