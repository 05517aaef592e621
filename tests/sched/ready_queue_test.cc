#include "unit/sched/ready_queue.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "unit/txn/transaction.h"

namespace unitdb {
namespace {

Transaction Query(TxnId id, double deadline_s, double exec_ms = 10.0) {
  return Transaction::MakeQuery(id, /*arrival=*/0, MillisToSim(exec_ms),
                                SecondsToSim(deadline_s), 0.9, {0});
}

Transaction Update(TxnId id, double deadline_s, double exec_ms = 10.0) {
  return Transaction::MakeUpdate(id, /*arrival=*/0, MillisToSim(exec_ms),
                                 SecondsToSim(deadline_s), 0, false);
}

TEST(ReadyQueueTest, EmptyQueue) {
  ReadyQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.Top(), nullptr);
  EXPECT_EQ(q.PopTop(), nullptr);
  EXPECT_EQ(q.size(), 0);
}

TEST(ReadyQueueTest, UpdatesOutrankQueries) {
  ReadyQueue q;
  Transaction query = Query(1, 0.001);   // much earlier deadline
  Transaction update = Update(2, 100.0);  // much later deadline
  q.Insert(&query);
  q.Insert(&update);
  EXPECT_EQ(q.Top(), &update);
  EXPECT_EQ(q.update_count(), 1);
  EXPECT_EQ(q.query_count(), 1);
}

TEST(ReadyQueueTest, EdfWithinClass) {
  ReadyQueue q;
  Transaction a = Query(1, 5.0);
  Transaction b = Query(2, 2.0);
  Transaction c = Query(3, 9.0);
  q.Insert(&a);
  q.Insert(&b);
  q.Insert(&c);
  EXPECT_EQ(q.PopTop(), &b);
  EXPECT_EQ(q.PopTop(), &a);
  EXPECT_EQ(q.PopTop(), &c);
}

TEST(ReadyQueueTest, DeadlineTiesBreakById) {
  ReadyQueue q;
  Transaction a = Query(7, 5.0);
  Transaction b = Query(3, 5.0);
  q.Insert(&a);
  q.Insert(&b);
  EXPECT_EQ(q.PopTop(), &b);
  EXPECT_EQ(q.PopTop(), &a);
}

TEST(ReadyQueueTest, RemoveAndContains) {
  ReadyQueue q;
  Transaction a = Query(1, 5.0);
  Transaction u = Update(2, 5.0);
  q.Insert(&a);
  q.Insert(&u);
  EXPECT_TRUE(q.Contains(&a));
  EXPECT_TRUE(q.Remove(&a));
  EXPECT_FALSE(q.Contains(&a));
  EXPECT_FALSE(q.Remove(&a));
  EXPECT_EQ(q.size(), 1);
}

TEST(ReadyQueueTest, UpdateWorkAccounting) {
  ReadyQueue q;
  Transaction u1 = Update(1, 5.0, 100.0);
  Transaction u2 = Update(2, 6.0, 50.0);
  Transaction query = Query(3, 5.0, 400.0);  // queries don't count
  q.Insert(&u1);
  q.Insert(&u2);
  q.Insert(&query);
  EXPECT_EQ(q.TotalUpdateWork(), MillisToSim(150.0));
  q.Remove(&u1);
  EXPECT_EQ(q.TotalUpdateWork(), MillisToSim(50.0));
  q.PopTop();  // pops u2
  EXPECT_EQ(q.TotalUpdateWork(), 0);
}

TEST(ReadyQueueTest, HigherPriorityRules) {
  ReadyQueue q;
  Transaction q1 = Query(1, 1.0), q2 = Query(2, 2.0);
  Transaction u1 = Update(3, 50.0);
  EXPECT_TRUE(q.HigherPriority(u1, q1));
  EXPECT_FALSE(q.HigherPriority(q1, u1));
  EXPECT_TRUE(q.HigherPriority(q1, q2));
  EXPECT_FALSE(q.HigherPriority(q2, q1));
}

TEST(ReadyQueueTest, FcfsDisciplineOrdersByArrival) {
  ReadyQueue q(QueueDiscipline::kFcfs);
  EXPECT_EQ(q.discipline(), QueueDiscipline::kFcfs);
  // Under FCFS the later-id query never outranks an earlier one, no matter
  // the deadlines.
  Transaction a = Query(1, 9.0);
  Transaction b = Query(2, 0.5);  // much tighter deadline, later arrival
  q.Insert(&a);
  q.Insert(&b);
  EXPECT_EQ(q.PopTop(), &a);
  EXPECT_EQ(q.PopTop(), &b);
  EXPECT_TRUE(q.HigherPriority(a, b));
}

TEST(ReadyQueueTest, FcfsStillRanksUpdatesAboveQueries) {
  ReadyQueue q(QueueDiscipline::kFcfs);
  Transaction query = Query(1, 0.1);
  Transaction update = Update(2, 100.0);
  q.Insert(&query);
  q.Insert(&update);
  EXPECT_EQ(q.Top(), &update);
}

TEST(ReadyQueueTest, PeakSizeIsMonotonicHighWaterMark) {
  ReadyQueue q;
  Transaction a = Query(1, 1.0), b = Query(2, 2.0), c = Query(3, 3.0);
  EXPECT_EQ(q.peak_size(), 0);
  q.Insert(&a);
  q.Insert(&b);
  EXPECT_EQ(q.peak_size(), 2);
  q.PopTop();
  q.PopTop();
  EXPECT_EQ(q.peak_size(), 2);  // draining doesn't lower the mark
  q.Insert(&c);
  EXPECT_EQ(q.peak_size(), 2);
}

/// Randomized model check: the intrusive heaps must agree with the seed's
/// std::set representation — same Top, same membership, same counts, same
/// update-work sum — through arbitrary insert/remove/pop mixes.
TEST(ReadyQueueTest, RandomizedMatchesSetModel) {
  for (QueueDiscipline discipline :
       {QueueDiscipline::kEdf, QueueDiscipline::kFcfs}) {
    std::mt19937_64 rng(discipline == QueueDiscipline::kEdf ? 1u : 2u);
    const int kTxns = 64;
    std::vector<Transaction> txns;
    txns.reserve(kTxns);
    for (int i = 0; i < kTxns; ++i) {
      const double deadline_s = 0.001 * static_cast<double>(1 + rng() % 5000);
      const double exec_ms = static_cast<double>(1 + rng() % 200);
      txns.push_back(i % 3 == 0 ? Update(i, deadline_s, exec_ms)
                                : Query(i, deadline_s, exec_ms));
    }

    ReadyQueue q(discipline);
    // Reference model: the seed's ordered-set comparator (class, then
    // deadline under EDF, then id).
    auto before = [&](const Transaction* a, const Transaction* b) {
      if (discipline == QueueDiscipline::kEdf &&
          a->absolute_deadline() != b->absolute_deadline()) {
        return a->absolute_deadline() < b->absolute_deadline();
      }
      return a->id() < b->id();
    };
    std::set<Transaction*, decltype(before)> updates(before);
    std::set<Transaction*, decltype(before)> queries(before);

    auto model_top = [&]() -> Transaction* {
      if (!updates.empty()) return *updates.begin();
      if (!queries.empty()) return *queries.begin();
      return nullptr;
    };

    for (int step = 0; step < 4000; ++step) {
      Transaction* t = &txns[rng() % kTxns];
      auto& model = t->is_update() ? updates : queries;
      switch (rng() % 3) {
        case 0:  // insert if absent
          if (model.insert(t).second) q.Insert(t);
          break;
        case 1:  // remove (possibly absent)
          EXPECT_EQ(q.Remove(t), model.erase(t) > 0);
          break;
        default: {  // pop
          Transaction* want = model_top();
          if (want != nullptr) {
            (want->is_update() ? updates : queries).erase(want);
          }
          EXPECT_EQ(q.PopTop(), want);
          break;
        }
      }
      ASSERT_EQ(q.Top(), model_top()) << "step " << step;
      ASSERT_EQ(q.update_count(), static_cast<int>(updates.size()));
      ASSERT_EQ(q.query_count(), static_cast<int>(queries.size()));
      ASSERT_EQ(q.Contains(t), (t->is_update() ? updates : queries).count(t) > 0);

      SimDuration update_work = 0;
      for (const Transaction* u : updates) update_work += u->remaining();
      ASSERT_EQ(q.TotalUpdateWork(), update_work);
    }
  }
}

}  // namespace
}  // namespace unitdb
