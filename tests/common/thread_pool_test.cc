#include "unit/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace unitdb {
namespace {

TEST(ThreadPoolTest, SubmitReturnsTaskResult) {
  ThreadPool pool(2);
  auto sum = pool.Submit([]() { return 19 + 23; });
  auto text = pool.Submit([]() { return std::string("done"); });
  EXPECT_EQ(sum.get(), 42);
  EXPECT_EQ(text.get(), "done");
}

TEST(ThreadPoolTest, ThreadCountIsClampedToAtLeastOne) {
  EXPECT_EQ(ThreadPool(0).num_threads(), 1);
  EXPECT_EQ(ThreadPool(-3).num_threads(), 1);
  EXPECT_EQ(ThreadPool(4).num_threads(), 4);
}

TEST(ThreadPoolTest, SingleWorkerDrainsFifo) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> done;
  for (int i = 0; i < 100; ++i) {
    done.push_back(pool.Submit([i, &order]() { order.push_back(i); }));
  }
  for (auto& f : done) f.get();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto boom = pool.Submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(boom.get(), std::runtime_error);
}

TEST(ThreadPoolTest, WorkerSurvivesThrowingTask) {
  ThreadPool pool(1);
  auto boom = pool.Submit([]() { throw std::runtime_error("first"); });
  auto after = pool.Submit([]() { return 7; });
  EXPECT_THROW(boom.get(), std::runtime_error);
  EXPECT_EQ(after.get(), 7);
}

TEST(ThreadPoolTest, WaitIdleIsABarrierNotAShutdown) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&ran]() { ++ran; });
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 50);
  // Still usable afterwards.
  auto again = pool.Submit([]() { return 1; });
  EXPECT_EQ(again.get(), 1);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    pool.Submit([]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    for (int i = 0; i < 25; ++i) {
      pool.Submit([&ran]() { ++ran; });
    }
    pool.Shutdown();  // must finish everything already queued
  }
  EXPECT_EQ(ran.load(), 25);
}

TEST(ThreadPoolTest, DoubleShutdownAndDestructorAreSafe) {
  ThreadPool pool(2);
  pool.Submit([]() {}).get();
  pool.Shutdown();
  pool.Shutdown();  // idempotent; destructor adds a third call
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  ThreadPool pool(1);
  pool.Shutdown();
  EXPECT_THROW(pool.Submit([]() {}), std::runtime_error);
}

TEST(ThreadPoolTest, StressManyProducersManyTasks) {
  constexpr int kProducers = 4;
  constexpr int kTasksPerProducer = 2500;
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &ran]() {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        pool.Submit([&ran]() { ++ran; });
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), kProducers * kTasksPerProducer);
}

TEST(ThreadPoolTest, DestructorAloneDrainsQueuedBacklog) {
  // No explicit Shutdown: the destructor must finish a deep queue behind a
  // slow task, not abandon it.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    pool.Submit([]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    for (int i = 0; i < 40; ++i) {
      pool.Submit([&ran]() { ++ran; });
    }
  }
  EXPECT_EQ(ran.load(), 40);
}

TEST(ThreadPoolTest, ShutdownMakesEveryQueuedFutureReady) {
  ThreadPool pool(1);
  std::vector<std::future<int>> results;
  pool.Submit([]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  for (int i = 0; i < 30; ++i) {
    results.push_back(pool.Submit([i]() { return i; }));
  }
  pool.Shutdown();
  // Shutdown drains rather than cancels, so no future is left dangling in
  // a broken-promise state.
  for (int i = 0; i < 30; ++i) EXPECT_EQ(results[i].get(), i);
}

TEST(ThreadPoolTest, ConcurrentSubmitDuringShutdownNeverLosesATask) {
  // Producers race Shutdown: every Submit either enqueues (and the task
  // runs before Shutdown returns) or throws; nothing is silently dropped.
  std::atomic<int> accepted{0};
  std::atomic<int> ran{0};
  ThreadPool pool(2);
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&pool, &accepted, &ran]() {
      for (int i = 0; i < 500; ++i) {
        try {
          pool.Submit([&ran]() { ++ran; });
          ++accepted;
        } catch (const std::runtime_error&) {
          return;  // pool shut down under us; later submits would throw too
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  pool.Shutdown();
  for (auto& t : producers) t.join();
  EXPECT_EQ(ran.load(), accepted.load());
}

TEST(ThreadPoolTest, ZeroJobsPoolRunsTasksOnItsClampedWorker) {
  // jobs=0 is what callers pass straight from a config default; the clamp
  // must yield a functional single-worker pool, not a silent no-op.
  ThreadPool pool(0);
  ASSERT_EQ(pool.num_threads(), 1);
  std::vector<int> order;
  std::vector<std::future<void>> done;
  for (int i = 0; i < 10; ++i) {
    done.push_back(pool.Submit([i, &order]() { order.push_back(i); }));
  }
  for (auto& f : done) f.get();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, WaitIdleOnFreshPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.WaitIdle();  // nothing queued, no worker active: must not block
  EXPECT_EQ(pool.Submit([]() { return 3; }).get(), 3);
}

TEST(ThreadPoolTest, ResolveJobsPicksHardwareForNonPositive) {
  EXPECT_GE(ResolveJobs(0), 1);
  EXPECT_GE(ResolveJobs(-1), 1);
  EXPECT_EQ(ResolveJobs(6), 6);
}

TEST(FanOutTest, ResultsComeBackInIndexOrder) {
  constexpr int kTasks = 13;  // not a multiple of any worker count below
  for (int jobs : {0, 1, 2, 8}) {
    auto squares = FanOut(kTasks, jobs, [](int i) -> StatusOr<int> {
      // Early indices finish last, so completion order is reversed.
      std::this_thread::sleep_for(std::chrono::microseconds(50 * (kTasks - i)));
      return i * i;
    });
    ASSERT_TRUE(squares.ok()) << "jobs=" << jobs;
    ASSERT_EQ(squares->size(), static_cast<size_t>(kTasks)) << "jobs=" << jobs;
    for (int i = 0; i < kTasks; ++i) {
      EXPECT_EQ((*squares)[static_cast<size_t>(i)], i * i) << "jobs=" << jobs;
    }
  }
}

TEST(FanOutTest, LowestFailingIndexWinsAndEveryTaskStillRuns) {
  for (int jobs : {0, 1, 2, 8}) {
    std::atomic<int> ran{0};
    auto result = FanOut(10, jobs, [&ran](int i) -> StatusOr<int> {
      ++ran;
      if (i == 3) {
        // The lower failure finishes after the higher one.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return Status::Internal("task 3");
      }
      if (i == 7) return Status::NotFound("task 7");
      return i;
    });
    ASSERT_FALSE(result.ok()) << "jobs=" << jobs;
    EXPECT_EQ(result.status().code(), StatusCode::kInternal) << "jobs=" << jobs;
    EXPECT_EQ(result.status().message(), "task 3") << "jobs=" << jobs;
    EXPECT_EQ(ran.load(), 10) << "jobs=" << jobs;
  }
}

TEST(FanOutTest, OneWorkerRunsInlineOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  // jobs=1, and any jobs count with a single task, resolve to one worker.
  for (const auto& [n, jobs] : {std::pair{5, 1}, std::pair{1, 8}}) {
    auto ids = FanOut(n, jobs, [](int) -> StatusOr<std::thread::id> {
      return std::this_thread::get_id();
    });
    ASSERT_TRUE(ids.ok());
    ASSERT_EQ(ids->size(), static_cast<size_t>(n));
    for (const std::thread::id& id : *ids) EXPECT_EQ(id, caller);
  }
}

TEST(FanOutTest, ZeroTasksReturnAnEmptyResult) {
  for (int jobs : {0, 1, 8}) {
    int calls = 0;
    auto none = FanOut(0, jobs, [&calls](int) -> StatusOr<std::string> {
      ++calls;
      return std::string("never");
    });
    ASSERT_TRUE(none.ok()) << "jobs=" << jobs;
    EXPECT_TRUE(none->empty()) << "jobs=" << jobs;
    EXPECT_EQ(calls, 0) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace unitdb
