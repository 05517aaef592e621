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

TEST(EventQueueTest, ShouldCompactNeedsManyDeadAndHalfTheHeap) {
  EventQueue q;
  for (int i = 0; i < 200; ++i) q.Push(i, EventType::kControlTick, i);
  for (size_t i = 0; i <= EventQueue::kCompactMinDead; ++i) q.NoteCancelled();
  // 65 tombstones out of 200 events: above the floor but not half the heap.
  EXPECT_FALSE(q.ShouldCompact());
  for (int i = 0; i < 40; ++i) q.NoteCancelled();
  EXPECT_TRUE(q.ShouldCompact());  // 105 * 2 > 200
  EXPECT_EQ(q.cancelled(), 105u);
}

TEST(EventQueueTest, CompactIfDropsDeadAndPreservesLiveOrder) {
  EventQueue q;
  // Interleave live and dead events, with ties at equal timestamps so the
  // FIFO seq tie-break is also exercised across a re-heapify.
  for (int i = 0; i < 100; ++i) {
    q.Push(/*time=*/i / 2, EventType::kControlTick, /*payload=*/i);
  }
  auto dead = [](const Event& e) { return e.payload % 3 == 0; };
  for (int i = 0; i < 100; ++i) {
    if (i % 3 == 0) q.NoteCancelled();
  }
  const size_t removed = q.CompactIf(dead);
  EXPECT_EQ(removed, 34u);
  EXPECT_EQ(q.size(), 66u);
  EXPECT_EQ(q.cancelled(), 0u);  // counter resets with the pass

  std::vector<int64_t> got;
  while (!q.empty()) got.push_back(q.Pop().payload);
  std::vector<int64_t> want;
  for (int i = 0; i < 100; ++i) {
    if (i % 3 != 0) want.push_back(i);  // original (time, seq) order
  }
  EXPECT_EQ(got, want);
}

TEST(EventQueueTest, CompactIfCanEmptyTheQueue) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.Push(i, EventType::kQueryDeadline, i);
  EXPECT_EQ(q.CompactIf([](const Event&) { return true; }), 5u);
  EXPECT_TRUE(q.empty());
  q.Push(1, EventType::kControlTick, 7);  // still usable afterwards
  EXPECT_EQ(q.Pop().payload, 7);
}

}  // namespace
}  // namespace unitdb
