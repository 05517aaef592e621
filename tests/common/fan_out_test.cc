#include "unit/common/fan_out.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace unitdb {
namespace {

TEST(FanOutTest, ResolveJobsPicksHardwareForNonPositive) {
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
      // Slow enough that a stray helper thread would claim some calls.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
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

TEST(FanOutTest, EveryIndexRunsExactlyOnce) {
  // Many trivial calls race for the shared index counter; the TSan build's
  // stress test of the one parallel primitive.
  constexpr int kTasks = 20000;
  for (int jobs : {2, 8}) {
    std::vector<std::atomic<int>> calls(kTasks);
    auto indices = FanOut(kTasks, jobs, [&calls](int i) -> StatusOr<int> {
      ++calls[static_cast<size_t>(i)];
      return i;
    });
    ASSERT_TRUE(indices.ok()) << "jobs=" << jobs;
    ASSERT_EQ(indices->size(), static_cast<size_t>(kTasks)) << "jobs=" << jobs;
    int wrong_calls = 0;
    int out_of_order = 0;
    for (int i = 0; i < kTasks; ++i) {
      if (calls[static_cast<size_t>(i)].load() != 1) ++wrong_calls;
      if ((*indices)[static_cast<size_t>(i)] != i) ++out_of_order;
    }
    EXPECT_EQ(wrong_calls, 0) << "jobs=" << jobs;
    EXPECT_EQ(out_of_order, 0) << "jobs=" << jobs;
  }
}

TEST(FanOutTest, UsesAtMostMinJobsNThreads) {
  for (const auto& [n, jobs] : {std::pair{16, 4}, std::pair{3, 8}}) {
    auto ids = FanOut(n, jobs, [](int) -> StatusOr<std::thread::id> {
      // Long enough that every worker gets to claim some of the calls.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return std::this_thread::get_id();
    });
    ASSERT_TRUE(ids.ok());
    const std::set<std::thread::id> distinct(ids->begin(), ids->end());
    EXPECT_LE(distinct.size(), static_cast<size_t>(std::min(n, jobs)))
        << "n=" << n << " jobs=" << jobs;
  }
}

}  // namespace
}  // namespace unitdb
