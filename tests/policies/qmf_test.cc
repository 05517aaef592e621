#include "unit/core/policies/qmf.h"

#include <gtest/gtest.h>

#include "unit/core/policies/imu.h"
#include "unit/sched/engine.h"
#include "unit/sim/experiment.h"

namespace unitdb {
namespace {

Workload StandardWorkload(UpdateVolume volume, double scale = 0.25) {
  auto w = MakeStandardWorkload(volume, UpdateDistribution::kUniform, scale,
                                /*seed=*/42);
  EXPECT_TRUE(w.ok());
  return *w;
}

TEST(QmfPolicyTest, ResolvesEveryQuery) {
  Workload w = StandardWorkload(UpdateVolume::kMedium);
  QmfPolicy policy;
  Engine engine(w, &policy, {});
  RunMetrics m = engine.Run();
  EXPECT_EQ(m.counts.resolved(), m.counts.submitted);
}

TEST(QmfPolicyTest, BudgetRejectsDuringBursts) {
  Workload w = StandardWorkload(UpdateVolume::kMedium, 1.0);
  QmfPolicy policy;
  Engine engine(w, &policy, {});
  RunMetrics m = engine.Run();
  EXPECT_GT(m.counts.rejected, 0);
  EXPECT_GT(policy.budget_rejections(), 0);
}

TEST(QmfPolicyTest, DegradesUpdatesWhenOverloaded) {
  Workload w = StandardWorkload(UpdateVolume::kHigh, 1.0);
  QmfPolicy policy;
  Engine engine(w, &policy, {});
  RunMetrics m = engine.Run();
  EXPECT_GT(m.updates_dropped, 0);
}

TEST(QmfPolicyTest, KeepsEverythingWhenIdle) {
  // A lightly loaded system should neither reject nor shed updates much.
  auto w = MakeStandardWorkload(UpdateVolume::kLow,
                                UpdateDistribution::kUniform, 0.25, 7);
  ASSERT_TRUE(w.ok());
  QmfPolicy policy;
  Engine engine(*w, &policy, {});
  RunMetrics m = engine.Run();
  EXPECT_LT(m.counts.RejectionRatio(), 0.25);
  EXPECT_LT(static_cast<double>(m.updates_dropped),
            0.5 * static_cast<double>(w->TotalSourceUpdates()));
}

TEST(QmfPolicyTest, RejectsMoreAggressivelyThanImuMisses) {
  // The paper's observation: QMF trades rejections for a low miss ratio
  // among admitted queries.
  Workload w = StandardWorkload(UpdateVolume::kMedium, 1.0);
  QmfPolicy qmf;
  Engine e(w, &qmf, {});
  RunMetrics m = e.Run();
  const double admitted =
      static_cast<double>(m.counts.submitted - m.counts.rejected);
  const double miss_ratio_admitted =
      admitted > 0 ? static_cast<double>(m.counts.dmf) / admitted : 0.0;
  ImuPolicy imu;
  Engine e2(w, &imu, {});
  RunMetrics m2 = e2.Run();
  EXPECT_LT(miss_ratio_admitted, m2.counts.DmfRatio());
  EXPECT_GT(m.counts.RejectionRatio(), m2.counts.RejectionRatio());
}

TEST(QmfPolicyTest, BudgetStaysWithinBounds) {
  // The budget's fixed bounds, qmf.cc's kMinBudget and kMaxBudget.
  Workload w = StandardWorkload(UpdateVolume::kHigh, 0.5);
  QmfPolicy policy;
  Engine engine(w, &policy, {});
  engine.Run();
  EXPECT_GE(policy.budget(), 0.02);
  EXPECT_LE(policy.budget(), 2.0);
}

TEST(QmfPolicyTest, WeightInsensitivity) {
  // QMF ignores USM weights entirely: identical runs regardless.
  Workload w = StandardWorkload(UpdateVolume::kMedium);
  QmfPolicy p1, p2;
  Engine e1(w, &p1, {}), e2(w, &p2, {});
  RunMetrics a = e1.Run(), b = e2.Run();
  EXPECT_EQ(a.counts, b.counts);
}

}  // namespace
}  // namespace unitdb
