#include "unit/sched/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace unitdb {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  q.Push(30, EventType::kControlTick, 3);
  q.Push(10, EventType::kControlTick, 1);
  q.Push(20, EventType::kControlTick, 2);
  EXPECT_EQ(q.Pop().payload, 1);
  EXPECT_EQ(q.Pop().payload, 2);
  EXPECT_EQ(q.Pop().payload, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, TiesBreakFifo) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.Push(5, EventType::kQueryArrival, i);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(q.Pop().payload, i);
  }
}

TEST(EventQueueTest, CarriesTypeAndPayload) {
  EventQueue q;
  q.Push(1, EventType::kQueryDeadline, 42);
  const Event e = q.Pop();
  EXPECT_EQ(e.type, EventType::kQueryDeadline);
  EXPECT_EQ(e.payload, 42);
  EXPECT_EQ(e.time, 1);
}

TEST(EventQueueTest, TakenSequenceOrdersBetweenPushes) {
  // A sequence taken without a push sits between the pushes around it.
  EventQueue q;
  q.Push(5, EventType::kControlTick, 0);
  const uint64_t taken = q.TakeSeq();
  q.Push(5, EventType::kControlTick, 1);
  EXPECT_LT(q.Pop().seq, taken);
  EXPECT_GT(q.Pop().seq, taken);
}

TEST(EventQueueTest, SizeTracksContents) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  q.Push(1, EventType::kControlTick, 0);
  q.Push(2, EventType::kControlTick, 0);
  EXPECT_EQ(q.size(), 2u);
  q.Pop();
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, InterleavedPushPopKeepsOrder) {
  EventQueue q;
  q.Push(10, EventType::kControlTick, 1);
  q.Push(5, EventType::kControlTick, 0);
  EXPECT_EQ(q.Pop().payload, 0);
  q.Push(7, EventType::kControlTick, 2);
  q.Push(12, EventType::kControlTick, 3);
  std::vector<int64_t> rest;
  while (!q.empty()) rest.push_back(q.Pop().payload);
  EXPECT_EQ(rest, (std::vector<int64_t>{2, 1, 3}));
}

TEST(EventQueueTest, TopPeeksWithoutRemoving) {
  EventQueue q;
  q.Push(3, EventType::kControlTick, 9);
  EXPECT_EQ(q.Top().payload, 9);
  EXPECT_EQ(q.size(), 1u);
}

}  // namespace
}  // namespace unitdb
