#include "unit/core/update_modulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "unit/obs/trace_sink.h"
#include "unit/txn/transaction.h"

namespace unitdb {
namespace {

ItemUpdateSpec Source(ItemId item, double period_s, double exec_ms) {
  ItemUpdateSpec s;
  s.item = item;
  s.ideal_period = SecondsToSim(period_s);
  s.update_exec = MillisToSim(exec_ms);
  s.phase = 0;
  return s;
}

Transaction Query(double exec_ms, double deadline_s) {
  return Transaction::MakeQuery(1, 0, MillisToSim(exec_ms),
                                SecondsToSim(deadline_s), 0.9, {0});
}

ModulationParams EventDecayParams() {
  ModulationParams p;
  p.time_decay = false;  // literal per-event Eq. 8 for predictable math
  return p;
}

TEST(UpdateModulatorTest, ArrivalsRaiseTickets) {
  UpdateModulator um(4, EventDecayParams());
  const double before = um.ticket(2);
  um.OnUpdateArrival(2, MillisToSim(100.0), SecondsToSim(1.0));
  EXPECT_GT(um.ticket(2), before);
}

TEST(UpdateModulatorTest, AccessesLowerTickets) {
  ModulationParams p = EventDecayParams();
  UpdateModulator um(4, p);
  um.OnUpdateArrival(1, MillisToSim(100.0), SecondsToSim(1.0));
  const double before = um.ticket(1);
  um.OnQueryAccess(1, Query(50.0, 1.0), SecondsToSim(2.0));
  EXPECT_LT(um.ticket(1), before);
}

TEST(UpdateModulatorTest, TicketsClampAtFloor) {
  ModulationParams p = EventDecayParams();
  p.ticket_floor = -1.0;
  p.dt_scale = 1000.0;
  UpdateModulator um(2, p);
  for (int i = 0; i < 10; ++i) {
    um.OnQueryAccess(0, Query(100.0, 1.0), SecondsToSim(i));
  }
  EXPECT_DOUBLE_EQ(um.ticket(0), -1.0);
}

TEST(UpdateModulatorTest, PerEventForgettingDiscountsHistory) {
  ModulationParams p = EventDecayParams();
  p.c_forget = 0.5;
  UpdateModulator um(2, p);
  um.OnUpdateArrival(0, MillisToSim(100.0), 0);
  const double t1 = um.ticket(0);
  um.OnUpdateArrival(0, MillisToSim(100.0), 0);
  const double t2 = um.ticket(0);
  // Second ticket = 0.5 * t1 + IT, with IT == t1 (same execution time).
  EXPECT_NEAR(t2, 1.5 * t1, 1e-9);
}

TEST(UpdateModulatorTest, TimeDecayForgetsIndependentlyOfEventRate) {
  ModulationParams p;
  p.time_decay = true;
  p.forget_interval_s = 10.0;
  p.c_forget = 0.9;
  UpdateModulator um(2, p);
  um.OnUpdateArrival(0, MillisToSim(100.0), SecondsToSim(0.0));
  const double t0 = um.ticket(0);
  // 100 seconds of silence: decay 0.9^10 ~ 0.349 before the new IT lands.
  um.OnUpdateArrival(0, MillisToSim(100.0), SecondsToSim(100.0));
  const double t1 = um.ticket(0);
  EXPECT_NEAR(t1, t0 * 0.3487 + t0, t0 * 0.01);
}

TEST(UpdateModulatorTest, SigmoidGrowsWithExecutionTime) {
  ModulationParams p = EventDecayParams();
  UpdateModulator um(3, p);
  // Seed the running average with a mix of execution times.
  um.OnUpdateArrival(0, MillisToSim(50.0), 0);
  um.OnUpdateArrival(0, MillisToSim(150.0), 0);
  UpdateModulator cheap(1, p), costly(1, p);
  cheap.OnUpdateArrival(0, MillisToSim(50.0), 0);
  costly.OnUpdateArrival(0, MillisToSim(150.0), 0);
  // Within one modulator, a longer update adds a larger IT than a shorter
  // one relative to the same running average.
  UpdateModulator um2(2, p);
  um2.OnUpdateArrival(0, MillisToSim(100.0), 0);  // sets avg = 100ms
  um2.OnUpdateArrival(1, MillisToSim(100.0), 0);
  const double base0 = um2.ticket(0);
  um2.OnUpdateArrival(0, MillisToSim(300.0), 0);   // longer than average
  um2.OnUpdateArrival(1, MillisToSim(10.0), 0);    // shorter than average
  EXPECT_GT(um2.ticket(0) - base0 * p.c_forget,
            um2.ticket(1) - base0 * p.c_forget);
}

TEST(UpdateModulatorTest, DegradeStretchesVictimPeriods) {
  Database db(4);
  ASSERT_TRUE(db.ApplySpecs({Source(0, 10, 50), Source(1, 10, 50)}).ok());
  ModulationParams p = EventDecayParams();
  p.degrade_batch = 64;
  UpdateModulator um(db, p);
  EXPECT_EQ(um.sampler().eligible_count(), 2);
  Rng rng(3);
  um.Degrade(db, rng);
  EXPECT_EQ(um.degrade_signals(), 1);
  EXPECT_EQ(um.total_picks(), 64);
  EXPECT_GT(db.DegradedCount(), 0);
  const SimDuration pc0 = db.item(0).current_period;
  const SimDuration pc1 = db.item(1).current_period;
  EXPECT_GE(pc0, db.item(0).ideal_period);
  EXPECT_GE(pc1, db.item(1).ideal_period);
  EXPECT_GT(pc0 + pc1, 2 * db.item(0).ideal_period);
}

// The default batch draws one pick per item the lottery can pick, not per
// item in the database: a shard sourcing half the items draws half.
TEST(UpdateModulatorTest, DefaultBatchDrawsOnePickPerPickableItem) {
  Database db(4);
  ASSERT_TRUE(db.ApplySpecs({Source(0, 10, 50), Source(1, 10, 50)}).ok());
  ModulationParams p = EventDecayParams();
  p.degrade_batch = 0;
  UpdateModulator um(db, p);
  Rng rng(3);
  um.Degrade(db, rng);
  EXPECT_EQ(um.total_picks(), 2);
}

// One signal over 1024 sourced items with varied tickets stretches exactly
// the periods a hand loop of Sample plus stretch does, and traces each
// change in draw order; items already at the cap change nothing and trace
// nothing.
TEST(UpdateModulatorTest, DegradeBatchEqualsOneSamplePerPick) {
  constexpr int kItems = 1024;
  Database db(kItems);
  std::vector<ItemUpdateSpec> specs;
  for (ItemId i = 0; i < kItems; ++i) {
    specs.push_back(Source(i, 1.0 + (i % 7), 5.0 + (i % 11)));
  }
  ASSERT_TRUE(db.ApplySpecs(specs).ok());
  ModulationParams p;
  p.max_stretch = 2.0;
  UpdateModulator um(db, p);
  Rng churn(151);
  for (int step = 0; step < 4 * kItems; ++step) {
    const ItemId i = static_cast<ItemId>(churn.UniformInt(0, kItems - 1));
    const SimTime now = SecondsToSim(0.01 * step);
    if (churn.Bernoulli(0.3)) {
      um.OnQueryAccess(i, Query(churn.Uniform(1.0, 80.0), 1.0), now);
    } else {
      um.OnUpdateArrival(i, MillisToSim(churn.Uniform(1.0, 30.0)), now);
    }
  }
  for (ItemId i = 0; i < kItems; i += 64) {
    db.SetCurrentPeriod(i, 2 * db.item(i).ideal_period);  // at the cap
  }
  Database hand_db = db;
  LotterySampler hand = um.sampler();
  Rng rng(157);
  Rng hand_rng = rng;

  KeepingSink sink;
  um.set_trace(&sink);
  um.Degrade(db, rng, SecondsToSim(50.0));

  std::vector<TraceEvent> expected;
  for (int k = 0; k < hand.eligible_count(); ++k) {
    const ItemId v = hand.Sample(hand_rng);
    const DataItemState& item = hand_db.item(v);
    const SimDuration before = item.current_period;
    hand_db.SetCurrentPeriod(
        v, static_cast<SimDuration>(std::min(
               static_cast<double>(item.ideal_period) * p.max_stretch,
               static_cast<double>(before) * (1.0 + p.c_du))));
    if (item.current_period == before) continue;
    TraceEvent e;
    e.item = v;
    e.period_from = before;
    e.period_to = item.current_period;
    expected.push_back(e);
  }
  EXPECT_EQ(um.total_picks(), kItems);
  EXPECT_EQ(rng.NextU64(), hand_rng.NextU64());
  for (ItemId i = 0; i < kItems; ++i) {
    ASSERT_EQ(db.item(i).current_period, hand_db.item(i).current_period)
        << "item " << i;
  }
  ASSERT_EQ(sink.kept.size(), expected.size());
  ASSERT_LT(expected.size(), static_cast<size_t>(kItems));  // some capped
  for (size_t e = 0; e < expected.size(); ++e) {
    EXPECT_EQ(sink.kept[e].type, TraceEventType::kPeriodChange);
    EXPECT_EQ(sink.kept[e].item, expected[e].item) << "event " << e;
    EXPECT_EQ(sink.kept[e].period_from, expected[e].period_from);
    EXPECT_EQ(sink.kept[e].period_to, expected[e].period_to);
  }
}

TEST(UpdateModulatorTest, DegradeRespectsMaxStretch) {
  Database db(1);
  ASSERT_TRUE(db.SetSource(Source(0, 10, 50)).ok());
  ModulationParams p = EventDecayParams();
  p.max_stretch = 4.0;
  p.c_du = 1.0;  // double per pick
  p.degrade_batch = 16;
  UpdateModulator um(db, p);
  Rng rng(5);
  for (int i = 0; i < 5; ++i) um.Degrade(db, rng);
  EXPECT_LE(db.item(0).current_period, SecondsToSim(40.0));
}

TEST(UpdateModulatorTest, ItemsWithoutSourcesAreNeverVictims) {
  Database db(3);
  ASSERT_TRUE(db.SetSource(Source(1, 10, 50)).ok());
  ModulationParams p = EventDecayParams();
  p.degrade_batch = 32;
  UpdateModulator um(db, p);
  Rng rng(7);
  um.Degrade(db, rng);
  EXPECT_EQ(db.item(0).current_period, kNoUpdates);
  EXPECT_GT(db.item(1).current_period, db.item(1).ideal_period);
}

TEST(UpdateModulatorTest, SelectiveUpgradeRestoresOnlyDemandedItems) {
  Database db(3);
  ASSERT_TRUE(db.ApplySpecs({Source(0, 10, 50), Source(1, 10, 50),
                             Source(2, 10, 50)}).ok());
  ModulationParams p = EventDecayParams();
  p.selective_upgrade = true;
  UpdateModulator um(db, p);
  db.SetCurrentPeriod(0, SecondsToSim(40.0));
  db.SetCurrentPeriod(1, SecondsToSim(40.0));
  um.OnStaleAccess(1);  // only item 1 was observed stale
  auto touched = um.Upgrade(db);
  EXPECT_EQ(touched, (std::vector<ItemId>{1}));
  EXPECT_EQ(db.item(0).current_period, SecondsToSim(40.0));  // untouched
  // Item 1's ticket is <= 0 (no arrivals recorded): full restore.
  EXPECT_EQ(db.item(1).current_period, SecondsToSim(10.0));
}

TEST(UpdateModulatorTest, SelectiveUpgradeHalvesOverUpdatedItems) {
  Database db(1);
  ASSERT_TRUE(db.SetSource(Source(0, 10, 50)).ok());
  ModulationParams p = EventDecayParams();
  p.selective_upgrade = true;
  p.c_uu = 0.5;
  UpdateModulator um(db, p);
  // Build a clearly positive ticket: many update arrivals, no accesses.
  for (int i = 0; i < 10; ++i) {
    um.OnUpdateArrival(0, MillisToSim(50.0), SecondsToSim(i * 10.0));
  }
  ASSERT_GT(um.ticket(0), 0.0);
  db.SetCurrentPeriod(0, SecondsToSim(80.0));
  um.OnStaleAccess(0);
  um.Upgrade(db);
  EXPECT_EQ(db.item(0).current_period, SecondsToSim(40.0));
}

TEST(UpdateModulatorTest, GlobalUpgradeWalksEveryDegradedItem) {
  Database db(2);
  ASSERT_TRUE(db.ApplySpecs({Source(0, 10, 50), Source(1, 10, 50)}).ok());
  ModulationParams p = EventDecayParams();
  p.selective_upgrade = false;
  p.linear_upgrade = false;
  p.c_uu = 0.5;
  UpdateModulator um(db, p);
  db.SetCurrentPeriod(0, SecondsToSim(40.0));
  db.SetCurrentPeriod(1, SecondsToSim(15.0));
  auto touched = um.Upgrade(db);
  EXPECT_EQ(touched.size(), 2u);
  EXPECT_EQ(db.item(0).current_period, SecondsToSim(20.0));
  EXPECT_EQ(db.item(1).current_period, SecondsToSim(10.0));  // clamped
}

TEST(UpdateModulatorTest, GlobalLinearUpgradeSubtractsHalfPeriod) {
  Database db(1);
  ASSERT_TRUE(db.SetSource(Source(0, 10, 50)).ok());
  ModulationParams p = EventDecayParams();
  p.selective_upgrade = false;
  p.linear_upgrade = true;
  p.c_uu = 0.5;
  UpdateModulator um(db, p);
  db.SetCurrentPeriod(0, SecondsToSim(18.0));
  um.Upgrade(db);
  EXPECT_EQ(db.item(0).current_period, SecondsToSim(13.0));
  um.Upgrade(db);
  EXPECT_EQ(db.item(0).current_period, SecondsToSim(10.0));  // clamped
}

TEST(UpdateModulatorTest, StaleHitsAccumulateAndClear) {
  Database db(1);
  ASSERT_TRUE(db.SetSource(Source(0, 10, 50)).ok());
  ModulationParams p = EventDecayParams();
  UpdateModulator um(db, p);
  db.SetCurrentPeriod(0, SecondsToSim(40.0));
  um.OnStaleAccess(0);
  um.OnDegradedAccess(0);
  EXPECT_EQ(um.stale_hits(0), 2);
  um.Upgrade(db);
  EXPECT_EQ(um.stale_hits(0), 0);
}

}  // namespace
}  // namespace unitdb
