#include "unit/txn/transaction.h"

#include <gtest/gtest.h>

namespace unitdb {
namespace {

TEST(TransactionTest, QueryFactorySetsEverything) {
  Transaction t = Transaction::MakeQuery(7, SecondsToSim(1.0),
                                         MillisToSim(50.0), SecondsToSim(2.0),
                                         0.9, {3, 1});
  EXPECT_EQ(t.id(), 7);
  EXPECT_TRUE(t.is_query());
  EXPECT_FALSE(t.is_update());
  EXPECT_EQ(t.arrival(), SecondsToSim(1.0));
  EXPECT_EQ(t.exec_time(), MillisToSim(50.0));
  EXPECT_EQ(t.relative_deadline(), SecondsToSim(2.0));
  EXPECT_EQ(t.absolute_deadline(), SecondsToSim(3.0));
  EXPECT_DOUBLE_EQ(t.freshness_req(), 0.9);
  EXPECT_EQ(t.items(), (std::vector<ItemId>{3, 1}));
  EXPECT_EQ(t.state(), TxnState::kCreated);
  EXPECT_EQ(t.outcome(), Outcome::kPending);
  EXPECT_EQ(t.remaining(), t.exec_time());
  EXPECT_EQ(t.estimate(), t.exec_time());
  EXPECT_FALSE(t.holds_locks());
  EXPECT_FALSE(t.Terminal());
}

TEST(TransactionTest, UpdateFactory) {
  Transaction t = Transaction::MakeUpdate(9, SecondsToSim(2.0),
                                          MillisToSim(30.0),
                                          SecondsToSim(5.0), 4, true);
  EXPECT_TRUE(t.is_update());
  EXPECT_EQ(t.update_item(), 4);
  EXPECT_TRUE(t.on_demand());
  EXPECT_EQ(t.items().size(), 1u);
}

TEST(TransactionTest, CpuUtilizationShare) {
  Transaction t = Transaction::MakeQuery(1, 0, MillisToSim(100.0),
                                         SecondsToSim(1.0), 0.9, {0});
  EXPECT_NEAR(t.CpuUtilizationShare(), 0.1, 1e-9);
  t.set_estimate(MillisToSim(500.0));
  EXPECT_NEAR(t.CpuUtilizationShare(), 0.5, 1e-9);
}

TEST(TransactionTest, WorkAccounting) {
  Transaction t = Transaction::MakeQuery(1, 0, MillisToSim(100.0),
                                         SecondsToSim(1.0), 0.9, {0});
  t.set_remaining(MillisToSim(40.0));
  EXPECT_EQ(t.remaining(), MillisToSim(40.0));
  t.ResetWork();
  EXPECT_EQ(t.remaining(), MillisToSim(100.0));
  EXPECT_EQ(t.restarts(), 0);
  t.IncrementRestarts();
  EXPECT_EQ(t.restarts(), 1);
}

TEST(TransactionTest, TerminalStates) {
  Transaction t = Transaction::MakeQuery(1, 0, MillisToSim(10.0),
                                         SecondsToSim(1.0), 0.9, {0});
  t.set_state(TxnState::kRunning);
  EXPECT_FALSE(t.Terminal());
  t.set_state(TxnState::kCommitted);
  EXPECT_TRUE(t.Terminal());
  t.set_state(TxnState::kAborted);
  EXPECT_TRUE(t.Terminal());
}

TEST(OutcomeTest, Names) {
  EXPECT_STREQ(OutcomeName(Outcome::kSuccess), "success");
  EXPECT_STREQ(OutcomeName(Outcome::kRejected), "rejected");
  EXPECT_STREQ(OutcomeName(Outcome::kDeadlineMiss), "dmf");
  EXPECT_STREQ(OutcomeName(Outcome::kDataStale), "dsf");
  EXPECT_STREQ(OutcomeName(Outcome::kPending), "pending");
}

TEST(OutcomeCountsTest, Arithmetic) {
  OutcomeCounts a{10, 5, 1, 2, 1};
  OutcomeCounts b{4, 2, 1, 1, 0};
  OutcomeCounts d = a - b;
  EXPECT_EQ(d.submitted, 6);
  EXPECT_EQ(d.success, 3);
  EXPECT_EQ(d.rejected, 0);
  EXPECT_EQ(d.dmf, 1);
  EXPECT_EQ(d.dsf, 1);
  EXPECT_EQ(d.resolved(), 5);
}

TEST(TimeConversionTest, RoundTrips) {
  EXPECT_EQ(SecondsToSim(1.5), 1500000);
  EXPECT_EQ(MillisToSim(2.5), 2500);
  EXPECT_DOUBLE_EQ(SimToSeconds(SecondsToSim(3.25)), 3.25);
}

}  // namespace
}  // namespace unitdb
