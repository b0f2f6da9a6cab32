// ThreadPool: the reusable worker pool under the topic-partitioned audit.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/thread_pool.h"

namespace adlp {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();
  pool.Wait();
}

TEST(ThreadPoolTest, ReusableAcrossWaitCycles) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 20; ++i) pool.Submit([&count] { count.fetch_add(1); });
    pool.Wait();
    EXPECT_EQ(count.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.ThreadCount(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        count.fetch_add(1);
      });
    }
    // No Wait(): the destructor must still run every queued task before
    // joining (a dropped task would deadlock a Wait()-free caller).
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, ManyWorkersContendOnSharedCounter) {
  ThreadPool pool(8);
  std::atomic<std::uint64_t> sum{0};
  constexpr std::size_t kTasks = 500;
  for (std::size_t i = 0; i < kTasks; ++i) {
    pool.Submit([&sum, i] { sum.fetch_add(i); });
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), kTasks * (kTasks - 1) / 2);
}

}  // namespace
}  // namespace adlp
