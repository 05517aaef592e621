#include "unit/txn/txn_slab.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "unit/common/rng.h"
#include "unit/txn/transaction.h"

namespace unitdb {
namespace {

Transaction Query(TxnId id) {
  return Transaction::MakeQuery(id, /*arrival=*/id, /*exec=*/10,
                                /*relative_deadline=*/100,
                                /*freshness_req=*/0.9, {ItemId{0}});
}

TEST(TxnSlabTest, CreateCountsALiveSlot) {
  TxnSlab slab;
  Transaction* t = slab.Create(Query(1));
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->id(), 1);
  EXPECT_EQ(t->ready_pos(), -1);
  EXPECT_EQ(slab.live(), 1);
  EXPECT_EQ(slab.high_water(), 1);
  EXPECT_EQ(slab.slots_created(), 1);
}

TEST(TxnSlabTest, ReleasedSlotIsReusedBeforeANewOneIsCut) {
  TxnSlab slab;
  Transaction* a = slab.Create(Query(1));
  Transaction* b = slab.Create(Query(2));
  slab.Release(a);
  EXPECT_EQ(slab.live(), 1);
  EXPECT_EQ(slab.released(), 1);
  Transaction* c = slab.Create(Query(3));
  EXPECT_EQ(c, a);  // same slot, new occupant
  EXPECT_EQ(c->id(), 3);
  EXPECT_EQ(b->id(), 2);
  EXPECT_EQ(slab.slots_created(), 2);
  EXPECT_EQ(slab.high_water(), 2);
}

TEST(TxnSlabTest, PointersStayStableAcrossChunkGrowth) {
  TxnSlab slab;
  std::vector<Transaction*> ptrs;
  // Cross several 256-slot chunk boundaries without releasing anything.
  for (TxnId id = 0; id < 1000; ++id) ptrs.push_back(slab.Create(Query(id)));
  for (TxnId id = 0; id < 1000; ++id) EXPECT_EQ(ptrs[id]->id(), id);
  EXPECT_EQ(slab.high_water(), 1000);
}

// The memory-flat property: footprint tracks peak live population, not the
// total number of transactions pushed through the slab. Growing the workload
// 10x must not grow slots_created at all when the live bound is unchanged.
TEST(TxnSlabTest, HighWaterStaysBoundedUnderTenfoldChurn) {
  constexpr int kMaxLive = 32;
  for (const int total : {2000, 20000}) {
    TxnSlab slab;
    Rng rng(99);
    std::vector<Transaction*> live;
    for (TxnId id = 0; id < total; ++id) {
      live.push_back(slab.Create(Query(id)));
      if (static_cast<int>(live.size()) == kMaxLive) {
        const size_t pick =
            static_cast<size_t>(rng.UniformInt(0, kMaxLive - 1));
        slab.Release(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      }
    }
    EXPECT_LE(slab.high_water(), kMaxLive);
    EXPECT_EQ(slab.slots_created(), slab.high_water());
    EXPECT_EQ(slab.released() + slab.live(), total);
  }
}

// Randomized churn: interleave creates and releases. Every live
// transaction keeps its id while other slots churn, and a create reuses the
// most recently released slot while one waits, cutting a new slot only when
// none does.
TEST(TxnSlabTest, RandomChurnKeepsIdsAndReusesReleasedSlots) {
  TxnSlab slab;
  Rng rng(7);
  std::vector<std::pair<Transaction*, TxnId>> live;
  std::vector<Transaction*> released;  // waiting slots, most recent last
  TxnId next_id = 0;
  for (int step = 0; step < 50000; ++step) {
    if (live.empty() || rng.Bernoulli(0.55)) {
      const int64_t cut = slab.slots_created();
      Transaction* t = slab.Create(Query(next_id));
      if (released.empty()) {
        ASSERT_EQ(slab.slots_created(), cut + 1);
      } else {
        ASSERT_EQ(t, released.back());
        ASSERT_EQ(slab.slots_created(), cut);
        released.pop_back();
      }
      live.emplace_back(t, next_id);
      ++next_id;
    } else {
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      ASSERT_EQ(live[pick].first->id(), live[pick].second);
      slab.Release(live[pick].first);
      released.push_back(live[pick].first);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  for (const auto& [t, id] : live) EXPECT_EQ(t->id(), id);
  EXPECT_EQ(slab.live(), static_cast<int64_t>(live.size()));
  EXPECT_EQ(slab.slots_created(),
            static_cast<int64_t>(live.size() + released.size()));
  EXPECT_EQ(slab.high_water(), slab.slots_created());
}

}  // namespace
}  // namespace unitdb
