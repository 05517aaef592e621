// Randomized stress test: the lock manager against a straightforward
// reference model, over thousands of random acquire/release operations.

#include <gtest/gtest.h>

#include <utility>
#include <map>
#include <set>
#include <vector>

#include "unit/common/rng.h"
#include "unit/db/lock_manager.h"

namespace unitdb {
namespace {

// Reference model: plain maps, no cleverness.
struct Model {
  std::map<ItemId, TxnId> exclusive;
  std::map<ItemId, std::set<TxnId>> shared;
  std::map<TxnId, std::set<ItemId>> held;

  bool CanShared(TxnId txn, const std::vector<ItemId>& items) const {
    for (ItemId i : items) {
      auto it = exclusive.find(i);
      if (it != exclusive.end() && it->second != txn) return false;
    }
    return true;
  }
  void AcquireShared(TxnId txn, const std::vector<ItemId>& items) {
    for (ItemId i : items) {
      shared[i].insert(txn);
      held[txn].insert(i);
    }
  }
  // Returns granted.
  bool TryExclusive(TxnId txn, ItemId item) {
    auto x = exclusive.find(item);
    if (x != exclusive.end() && x->second != txn) return false;
    auto s = shared.find(item);
    if (s != shared.end() && !s->second.empty()) return false;
    exclusive[item] = txn;
    held[txn].insert(item);
    return true;
  }
  void Release(TxnId txn) {
    auto it = held.find(txn);
    if (it == held.end()) return;
    for (ItemId i : it->second) {
      auto x = exclusive.find(i);
      if (x != exclusive.end() && x->second == txn) exclusive.erase(x);
      auto s = shared.find(i);
      if (s != shared.end()) s->second.erase(txn);
    }
    held.erase(it);
  }
  bool IsLocked(ItemId i) const {
    if (exclusive.count(i)) return true;
    auto s = shared.find(i);
    return s != shared.end() && !s->second.empty();
  }
};

class LockManagerStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LockManagerStressTest, MatchesReferenceModel) {
  const int kItems = 24;
  const int kTxns = 40;
  Rng rng(GetParam());
  LockManager lm(kItems);
  Model model;
  std::set<TxnId> live;  // txns currently holding (or having attempted)
  // The transaction each id last attempted with; std::map keeps it at one
  // address while the table points at it. Replaced only when it holds
  // nothing.
  std::map<TxnId, Transaction> txns;
  const auto start = [&txns](TxnId txn, Transaction t) {
    return &txns.insert_or_assign(txn, std::move(t)).first->second;
  };
  const auto release = [&txns, &lm](TxnId txn) {
    auto it = txns.find(txn);
    if (it != txns.end()) lm.Release(&it->second);
  };

  for (int step = 0; step < 5000; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 2));
    const TxnId txn = rng.UniformInt(0, kTxns - 1);
    if (op == 0 && !model.held.count(txn)) {
      // Shared acquisition of 1-3 random items (all-or-nothing).
      std::vector<ItemId> items;
      const int n = static_cast<int>(rng.UniformInt(1, 3));
      for (int k = 0; k < n; ++k) {
        items.push_back(static_cast<ItemId>(rng.UniformInt(0, kItems - 1)));
      }
      const bool can = model.CanShared(txn, items);
      Transaction* q =
          start(txn, Transaction::MakeQuery(txn, 0, 1, 10, 0.5, items));
      ASSERT_EQ(lm.TryAcquireShared(q), can) << "step " << step;
      ASSERT_EQ(q->holds_locks(), can) << "step " << step;
      if (can) {
        model.AcquireShared(txn, items);
        live.insert(txn);
      }
    } else if (op == 1 && !model.held.count(txn)) {
      const ItemId item = static_cast<ItemId>(rng.UniformInt(0, kItems - 1));
      const bool expect = [&] {
        Model copy = model;
        return copy.TryExclusive(txn, item);
      }();
      Transaction* u = start(
          txn, Transaction::MakeUpdate(txn, 0, 1, 10, item, false));
      auto attempt = lm.TryAcquireExclusive(u);
      ASSERT_EQ(attempt.granted, expect) << "step " << step;
      ASSERT_EQ(u->holds_locks(), expect) << "step " << step;
      if (expect) {
        model.TryExclusive(txn, item);
        live.insert(txn);
      } else {
        // Conflict reporting must match the model's holders, in id order.
        if (!attempt.shared_holders.empty()) {
          std::vector<TxnId> ids;
          for (const Transaction* h : attempt.shared_holders) {
            ids.push_back(h->id());
          }
          const std::set<TxnId>& holders = model.shared[item];
          ASSERT_EQ(ids, std::vector<TxnId>(holders.begin(), holders.end()))
              << "step " << step;
        } else {
          ASSERT_TRUE(model.exclusive.count(item));  // blocked by X
        }
      }
    } else {
      release(txn);
      model.Release(txn);
      live.erase(txn);
    }
    // Spot-check a random item's lock state.
    const ItemId probe = static_cast<ItemId>(rng.UniformInt(0, kItems - 1));
    ASSERT_EQ(lm.IsLocked(probe), model.IsLocked(probe)) << "step " << step;
  }
  // Drain and verify everything unlocks.
  for (TxnId txn : live) {
    release(txn);
    model.Release(txn);
  }
  for (ItemId i = 0; i < kItems; ++i) {
    EXPECT_FALSE(lm.IsLocked(i)) << "item " << i;
    EXPECT_FALSE(model.IsLocked(i)) << "item " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockManagerStressTest,
                         ::testing::Values(1u, 2u, 3u, 99u));

}  // namespace
}  // namespace unitdb
