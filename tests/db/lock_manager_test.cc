#include "unit/db/lock_manager.h"

#include <gtest/gtest.h>

#include <vector>

namespace unitdb {
namespace {

Transaction Query(TxnId id, std::vector<ItemId> items) {
  return Transaction::MakeQuery(id, 0, 1, 10, 0.5, items);
}

Transaction Update(TxnId id, ItemId item) {
  return Transaction::MakeUpdate(id, 0, 1, 10, item, /*on_demand=*/false);
}

std::vector<TxnId> Ids(const std::vector<Transaction*>& txns) {
  std::vector<TxnId> ids;
  for (const Transaction* t : txns) ids.push_back(t->id());
  return ids;
}

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm(4);
  Transaction q1 = Query(1, {0, 1});
  Transaction q2 = Query(2, {1, 2});
  EXPECT_TRUE(lm.TryAcquireShared(&q1));
  EXPECT_TRUE(lm.TryAcquireShared(&q2));
  EXPECT_TRUE(q1.holds_locks());
  EXPECT_TRUE(q2.holds_locks());
  EXPECT_TRUE(lm.IsLocked(0));
  EXPECT_TRUE(lm.IsLocked(1));
  EXPECT_TRUE(lm.IsLocked(2));
  EXPECT_FALSE(lm.IsLocked(3));
}

TEST(LockManagerTest, ExclusiveBlocksShared) {
  LockManager lm(4);
  Transaction u1 = Update(1, 2);
  Transaction q2 = Query(2, {0, 2});
  auto x = lm.TryAcquireExclusive(&u1);
  ASSERT_TRUE(x.granted);
  EXPECT_TRUE(u1.holds_locks());
  EXPECT_FALSE(lm.TryAcquireShared(&q2));
  // All-or-nothing: the failed acquisition must hold nothing, including
  // the uncontended item 0.
  EXPECT_FALSE(q2.holds_locks());
  EXPECT_FALSE(lm.IsLocked(0));
  EXPECT_TRUE(lm.IsLocked(2));
}

TEST(LockManagerTest, SharedBlocksExclusiveAndReportsHolders) {
  LockManager lm(4);
  Transaction q7 = Query(7, {1});
  Transaction q3 = Query(3, {1});
  Transaction u9 = Update(9, 1);
  ASSERT_TRUE(lm.TryAcquireShared(&q7));
  ASSERT_TRUE(lm.TryAcquireShared(&q3));
  auto x = lm.TryAcquireExclusive(&u9);
  EXPECT_FALSE(x.granted);
  EXPECT_FALSE(u9.holds_locks());
  // Holders reported in deterministic (txn-id) order.
  EXPECT_EQ(x.shared_holders, (std::vector<Transaction*>{&q3, &q7}));
}

TEST(LockManagerTest, SharedHoldersComeBackInTxnIdOrder) {
  // Acquisition order is not id order, and a release in between reshuffles
  // the item's holder list; the report is in id order all the same.
  LockManager lm(2);
  std::vector<Transaction> queries;
  for (TxnId id : {9, 2, 7, 4, 5}) queries.push_back(Query(id, {0}));
  for (Transaction& q : queries) ASSERT_TRUE(lm.TryAcquireShared(&q));
  lm.Release(&queries[0]);  // id 9
  Transaction u = Update(11, 0);
  auto x = lm.TryAcquireExclusive(&u);
  ASSERT_FALSE(x.granted);
  EXPECT_EQ(Ids(x.shared_holders), (std::vector<TxnId>{2, 4, 5, 7}));
}

TEST(LockManagerTest, ExclusiveBlocksExclusive) {
  LockManager lm(2);
  Transaction u1 = Update(1, 0);
  Transaction u2 = Update(2, 0);
  ASSERT_TRUE(lm.TryAcquireExclusive(&u1).granted);
  auto x = lm.TryAcquireExclusive(&u2);
  EXPECT_FALSE(x.granted);
  EXPECT_TRUE(x.shared_holders.empty());  // blocked by the X holder
  EXPECT_FALSE(u2.holds_locks());
}

TEST(LockManagerTest, ReleaseFreesItems) {
  LockManager lm(4);
  Transaction q1 = Query(1, {0, 2});
  Transaction u2 = Update(2, 0);
  ASSERT_TRUE(lm.TryAcquireShared(&q1));
  lm.Release(&q1);
  EXPECT_FALSE(q1.holds_locks());
  EXPECT_FALSE(lm.IsLocked(0));
  EXPECT_FALSE(lm.IsLocked(2));
  EXPECT_TRUE(lm.TryAcquireExclusive(&u2).granted);
}

TEST(LockManagerTest, ReleaseWithoutLocksIsNoop) {
  LockManager lm(2);
  Transaction q1 = Query(1, {0});
  Transaction q42 = Query(42, {0, 1});
  ASSERT_TRUE(lm.TryAcquireShared(&q1));
  lm.Release(&q42);  // reads item 0 too, but holds nothing
  EXPECT_FALSE(q42.holds_locks());
  EXPECT_TRUE(lm.IsLocked(0));
  EXPECT_FALSE(lm.IsLocked(1));
  Transaction u = Update(3, 0);
  EXPECT_EQ(lm.TryAcquireExclusive(&u).shared_holders,
            (std::vector<Transaction*>{&q1}));
}

TEST(LockManagerTest, ExclusiveAfterSharedRelease) {
  LockManager lm(2);
  Transaction q1 = Query(1, {0});
  Transaction u2 = Update(2, 0);
  ASSERT_TRUE(lm.TryAcquireShared(&q1));
  EXPECT_FALSE(lm.TryAcquireExclusive(&u2).granted);
  lm.Release(&q1);
  EXPECT_TRUE(lm.TryAcquireExclusive(&u2).granted);
}

TEST(LockManagerTest, DuplicateItemsInReadSetCollapse) {
  LockManager lm(2);
  Transaction q1 = Query(1, {1, 1, 1});
  Transaction u2 = Update(2, 1);
  ASSERT_TRUE(lm.TryAcquireShared(&q1));
  // One lock, so one holder entry.
  EXPECT_EQ(lm.TryAcquireExclusive(&u2).shared_holders,
            (std::vector<Transaction*>{&q1}));
  lm.Release(&q1);
  EXPECT_FALSE(lm.IsLocked(1));
  EXPECT_TRUE(lm.TryAcquireExclusive(&u2).granted);
}

TEST(LockManagerTest, RepeatedIdsLockAndReleaseCleanly) {
  // Non-adjacent repeats, beside another holder of the repeated item.
  LockManager lm(3);
  Transaction q5 = Query(5, {1});
  Transaction q1 = Query(1, {1, 2, 1, 2});
  ASSERT_TRUE(lm.TryAcquireShared(&q5));
  ASSERT_TRUE(lm.TryAcquireShared(&q1));
  Transaction u1 = Update(8, 1);
  Transaction u2 = Update(9, 2);
  EXPECT_EQ(lm.TryAcquireExclusive(&u1).shared_holders,
            (std::vector<Transaction*>{&q1, &q5}));
  EXPECT_EQ(lm.TryAcquireExclusive(&u2).shared_holders,
            (std::vector<Transaction*>{&q1}));
  lm.Release(&q1);
  EXPECT_TRUE(lm.IsLocked(1));  // still q5's
  EXPECT_FALSE(lm.IsLocked(2));
  EXPECT_EQ(lm.TryAcquireExclusive(&u1).shared_holders,
            (std::vector<Transaction*>{&q5}));
  EXPECT_TRUE(lm.TryAcquireExclusive(&u2).granted);
  lm.Release(&q5);
  EXPECT_TRUE(lm.TryAcquireExclusive(&u1).granted);
}

TEST(LockManagerTest, ReleasingOneSharedHolderKeepsTheOthersLocks) {
  LockManager lm(2);
  Transaction q1 = Query(1, {0});
  Transaction q2 = Query(2, {0});
  Transaction q3 = Query(3, {0, 1});
  for (Transaction* q : {&q1, &q2, &q3}) ASSERT_TRUE(lm.TryAcquireShared(q));
  lm.Release(&q2);
  EXPECT_TRUE(lm.IsLocked(0));
  EXPECT_TRUE(lm.IsLocked(1));
  Transaction u = Update(4, 0);
  EXPECT_EQ(lm.TryAcquireExclusive(&u).shared_holders,
            (std::vector<Transaction*>{&q1, &q3}));
  lm.Release(&q1);
  lm.Release(&q3);
  EXPECT_FALSE(lm.IsLocked(0));
  EXPECT_FALSE(lm.IsLocked(1));
}

TEST(LockManagerTest, ReleaseFreesOnlyTheReleasedTransactionsItems) {
  LockManager lm(4);
  Transaction q1 = Query(1, {0});
  Transaction u2 = Update(2, 1);
  ASSERT_TRUE(lm.TryAcquireShared(&q1));
  ASSERT_TRUE(lm.TryAcquireExclusive(&u2).granted);
  EXPECT_TRUE(lm.IsLocked(0));
  EXPECT_TRUE(lm.IsLocked(1));
  lm.Release(&q1);
  EXPECT_FALSE(lm.IsLocked(0));
  EXPECT_TRUE(lm.IsLocked(1));
  lm.Release(&u2);
  EXPECT_FALSE(u2.holds_locks());
  EXPECT_FALSE(lm.IsLocked(1));
}

TEST(LockManagerTest, MixedConflictScenario) {
  // Models the 2PL-HP flow the engine drives: update displaces readers.
  LockManager lm(3);
  Transaction q10 = Query(10, {0, 1});
  Transaction q11 = Query(11, {1, 2});
  Transaction u99 = Update(99, 1);
  ASSERT_TRUE(lm.TryAcquireShared(&q10));
  ASSERT_TRUE(lm.TryAcquireShared(&q11));
  auto x = lm.TryAcquireExclusive(&u99);
  ASSERT_FALSE(x.granted);
  for (Transaction* victim : x.shared_holders) lm.Release(victim);
  x = lm.TryAcquireExclusive(&u99);
  EXPECT_TRUE(x.granted);
  // Victims hold nothing anymore, on any item.
  EXPECT_FALSE(q10.holds_locks());
  EXPECT_FALSE(q11.holds_locks());
  EXPECT_FALSE(lm.IsLocked(0));
  EXPECT_TRUE(lm.IsLocked(1));
  EXPECT_FALSE(lm.IsLocked(2));
}

}  // namespace
}  // namespace unitdb
