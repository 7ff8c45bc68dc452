// Unit tests for the exec/ fork-join runtime: ParallelFor correctness
// (every index once, nested forks, many forking threads, cancellation)
// and the owning-thread assertion.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "exec/task_pool.h"
#include "gtest/gtest.h"
#include "util/thread_check.h"

namespace ctsdd {
namespace {

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

// ParallelFor returns only after indices running on other threads have
// finished: index 0 (inline on the forker) holds until a worker has
// started index 1, which then outlasts it.
TEST(TaskPoolTest, JoinWaitsForIndicesRunningOnWorkers) {
  exec::TaskPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::atomic<bool> started{false};
    std::atomic<bool> finished{false};
    exec::ParallelFor(&pool, 2, [&](size_t i) {
      if (i == 0) {
        while (!started.load()) std::this_thread::yield();
        return;
      }
      started.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      finished.store(true);
    });
    ASSERT_TRUE(finished.load()) << "round " << round;
  }
}

TEST(TaskPoolTest, ManyPoolsSequentially) {
  // Pools created and destroyed in sequence (a new pool may reuse a
  // destroyed one's address) each fork and join cleanly.
  for (int i = 0; i < 8; ++i) {
    exec::TaskPool pool(2);
    std::atomic<int> sum{0};
    exec::ParallelFor(&pool, 32, [&](size_t) { sum.fetch_add(1); });
    ASSERT_EQ(sum.load(), 32);
  }
}

// Every thread that forks is a participant only while its ParallelFor
// runs: a pool serves any number of distinct forking threads over its
// lifetime (a service restarts shard threads against one shared pool).
TEST(TaskPoolTest, SurvivesManyDistinctForkingThreads) {
  exec::TaskPool pool(2);
  for (int t = 0; t < 100; ++t) {
    std::atomic<int> sum{0};
    std::thread forker([&] {
      exec::ParallelFor(&pool, 8, [&](size_t i) {
        sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
      });
    });
    forker.join();
    ASSERT_EQ(sum.load(), 28) << "thread " << t;
  }
  EXPECT_EQ(pool.tasks_run(), 100u * 7u);
}

TEST(TaskPoolTest, TrippedTokenRunsNoIndex) {
  exec::TaskPool pool(4);
  const std::atomic<bool> cancel{true};
  std::atomic<int> ran{0};
  exec::ParallelFor(&pool, 64, &cancel, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
}

// A token tripped by fn(k) itself: the join still returns (skipped
// indices are claimed and counted, not waited on), and no index runs
// twice. Indices already running when the token trips finish normally.
TEST(TaskPoolTest, TokenTrippedInsideAnIndexJoinsPromptly) {
  exec::TaskPool pool(4);
  constexpr size_t kN = 2000;
  for (const size_t trip_at : {size_t{0}, size_t{17}, kN - 1}) {
    std::atomic<bool> cancel{false};
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    exec::ParallelFor(&pool, kN, &cancel, [&](size_t i) {
      hits[i].fetch_add(1);
      if (i == trip_at) cancel.store(true, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_LE(hits[i].load(), 1) << "index " << i;
    }
    EXPECT_EQ(hits[trip_at].load(), 1) << "trip at " << trip_at;
  }
}

// Index 0 runs inline on the forker and trips the token while every other
// started index waits for the trip: after it, only the indices already in
// flight (at most one per other participant) may complete.
TEST(TaskPoolTest, TokenTrippedInsideAnIndexStopsTheRest) {
  exec::TaskPool pool(4);
  constexpr size_t kN = 2000;
  std::atomic<bool> cancel{false};
  std::atomic<int> ran{0};
  exec::ParallelFor(&pool, kN, &cancel, [&](size_t i) {
    ran.fetch_add(1);
    if (i == 0) cancel.store(true, std::memory_order_relaxed);
    while (!cancel.load(std::memory_order_relaxed)) std::this_thread::yield();
  });
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), pool.workers());
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
