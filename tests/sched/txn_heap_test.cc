#include "unit/sched/txn_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "unit/txn/transaction.h"

namespace unitdb {
namespace {

/// A query due at `deadline_ms`, admitted with FIFO sequence `seq`.
Transaction Due(TxnId id, int64_t deadline_ms, uint64_t seq) {
  Transaction t = Transaction::MakeQuery(
      id, /*arrival=*/0, MillisToSim(1.0),
      MillisToSim(static_cast<double>(deadline_ms)), 0.9, {0});
  t.set_deadline_seq(seq);
  return t;
}

TEST(TxnHeapTest, DeadlineTiesBreakByAdmissionSequence) {
  DeadlineHeap heap;
  Transaction late = Due(0, 20, 0);
  Transaction second = Due(1, 10, 5);
  Transaction first = Due(2, 10, 3);
  for (Transaction* t : {&late, &second, &first}) heap.Push(t);
  EXPECT_EQ(heap.top(), &first);
  EXPECT_TRUE(heap.Erase(&first));
  EXPECT_EQ(first.deadline_pos(), -1);
  EXPECT_FALSE(heap.Erase(&first));
  EXPECT_EQ(heap.top(), &second);
  EXPECT_TRUE(heap.Erase(&second));
  EXPECT_EQ(heap.top(), &late);
  EXPECT_EQ(heap.size(), 1u);
}

/// Randomized model check of the heap template under the deadline order:
/// random pushes, erasures anywhere in the heap and reads of the top must
/// agree with a sorted reference, and after every step each member's slot
/// must point back at it and every other transaction's slot must be -1.
TEST(TxnHeapTest, RandomizedMatchesSortedModelUnderDeadlineOrder) {
  std::mt19937_64 rng(11);
  const int kTxns = 96;
  std::vector<Transaction> txns;
  txns.reserve(kTxns);
  std::vector<uint64_t> seqs(kTxns);
  for (int i = 0; i < kTxns; ++i) seqs[static_cast<size_t>(i)] = 7 * i + 3;
  std::shuffle(seqs.begin(), seqs.end(), rng);
  for (int i = 0; i < kTxns; ++i) {
    // Few distinct deadlines, so ties on the deadline are common.
    txns.push_back(Due(i, static_cast<int64_t>(1 + rng() % 12),
                       seqs[static_cast<size_t>(i)]));
  }

  DeadlineHeap heap;
  std::set<Transaction*, DeadlineOrder> model;
  for (int step = 0; step < 20000; ++step) {
    Transaction* t = &txns[rng() % kTxns];
    switch (rng() % 3) {
      case 0:  // push if absent
        if (model.insert(t).second) heap.Push(t);
        break;
      case 1:  // erase anywhere (possibly absent)
        EXPECT_EQ(heap.Erase(t), model.erase(t) > 0);
        break;
      default:  // erase the top
        if (!model.empty()) {
          ASSERT_EQ(heap.top(), *model.begin());
          model.erase(model.begin());
          heap.Erase(heap.top());
        }
        break;
    }
    ASSERT_EQ(heap.size(), model.size()) << "step " << step;
    if (!model.empty()) {
      ASSERT_EQ(heap.top(), *model.begin());
    }
    for (Transaction& x : txns) {
      const bool member = model.count(&x) > 0;
      ASSERT_EQ(heap.Contains(&x), member) << "step " << step;
      if (member) {
        ASSERT_EQ(heap.items()[static_cast<size_t>(x.deadline_pos())], &x);
      } else {
        ASSERT_EQ(x.deadline_pos(), -1);
      }
    }
  }
}

}  // namespace
}  // namespace unitdb
