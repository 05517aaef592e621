#include "unit/core/policies/unit_policy.h"

#include <gtest/gtest.h>

#include "unit/core/policies/imu.h"
#include "unit/sched/engine.h"
#include "unit/sim/experiment.h"

namespace unitdb {
namespace {

Workload StandardWorkload(UpdateVolume volume, UpdateDistribution dist,
                          double scale = 0.25) {
  auto w = MakeStandardWorkload(volume, dist, scale, /*seed=*/42);
  EXPECT_TRUE(w.ok());
  return *w;
}

RunMetrics RunUnit(const Workload& w, UnitPolicy& policy) {
  Engine engine(w, &policy, {});
  return engine.Run();
}

TEST(UnitPolicyTest, ResolvesEveryQuery) {
  Workload w = StandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform);
  UnitPolicy policy((UsmWeights()));
  RunMetrics m = RunUnit(w, policy);
  EXPECT_EQ(m.counts.resolved(), m.counts.submitted);
  EXPECT_GT(m.counts.success, 0);
}

TEST(UnitPolicyTest, BeatsImuOnMediumUniform) {
  Workload w = StandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 1.0);
  UnitPolicy unit((UsmWeights()));
  ImuPolicy imu;
  Engine e1(w, &unit, {});
  Engine e2(w, &imu, {});
  const double unit_usm = e1.Run().counts.SuccessRatio();
  const double imu_usm = e2.Run().counts.SuccessRatio();
  EXPECT_GT(unit_usm, imu_usm + 0.05);
}

TEST(UnitPolicyTest, ShedsUpdateLoadUnderPressure) {
  Workload w = StandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 1.0);
  UnitPolicy policy((UsmWeights()));
  RunMetrics m = RunUnit(w, policy);
  // A large share of the offered update stream must be shed.
  EXPECT_GT(m.updates_dropped, w.TotalSourceUpdates() / 4);
  EXPECT_GT(policy.modulator().total_picks(), 0);
  EXPECT_GT(policy.signals(ControlSignal::kDegradeAndTighten), 0);
}

TEST(UnitPolicyTest, ShedsColdItemsMoreThanHotOnes) {
  Workload w = StandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 1.0);
  UnitPolicy policy((UsmWeights()));
  RunMetrics m = RunUnit(w, policy);
  auto src = w.SourceUpdateCounts();
  auto accesses = w.QueryAccessCounts();
  double hot_keep_num = 0, hot_keep_den = 0, cold_keep_num = 0,
         cold_keep_den = 0;
  for (int i = 0; i < w.num_items; ++i) {
    if (src[i] == 0) continue;
    if (accesses[i] >= 20) {
      hot_keep_num += static_cast<double>(m.per_item_applied_updates[i]);
      hot_keep_den += static_cast<double>(src[i]);
    } else if (accesses[i] == 0) {
      cold_keep_num += static_cast<double>(m.per_item_applied_updates[i]);
      cold_keep_den += static_cast<double>(src[i]);
    }
  }
  ASSERT_GT(hot_keep_den, 0);
  ASSERT_GT(cold_keep_den, 0);
  // Keep-rate of hot (frequently queried) items must exceed cold items'.
  EXPECT_GT(hot_keep_num / hot_keep_den, 1.5 * cold_keep_num / cold_keep_den);
}

TEST(UnitPolicyTest, AdmissionControlRejectsUnderOverload) {
  Workload w = StandardWorkload(UpdateVolume::kHigh,
                                UpdateDistribution::kPositive, 1.0);
  UnitPolicy policy((UsmWeights()));
  RunMetrics m = RunUnit(w, policy);
  EXPECT_GT(m.counts.rejected, 0);
  EXPECT_GT(policy.admission().rejected_by_deadline() +
                policy.admission().rejected_by_usm(),
            0);
}

TEST(UnitPolicyTest, NoAdmissionControlAblationNeverRejects) {
  Workload w = StandardWorkload(UpdateVolume::kHigh,
                                UpdateDistribution::kUniform);
  UnitParams params;
  params.enable_admission_control = false;
  UnitPolicy policy(UsmWeights{}, params);
  RunMetrics m = RunUnit(w, policy);
  EXPECT_EQ(m.counts.rejected, 0);
}

TEST(UnitPolicyTest, NoModulationAblationAppliesEverything) {
  Workload w = StandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform);
  UnitParams params;
  params.enable_update_modulation = false;
  UnitPolicy policy(UsmWeights{}, params);
  RunMetrics m = RunUnit(w, policy);
  EXPECT_EQ(m.updates_dropped, 0);
  EXPECT_EQ(m.update_commits, w.TotalSourceUpdates());
}

TEST(UnitPolicyTest, WeightsSteerTheOutcomeMix) {
  // A punishing rejection cost should push UNIT to reject less than a
  // punishing DMF cost does.
  Workload w = StandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 1.0);
  UnitPolicy high_cr(UsmWeights{1.0, 4.0, 2.0, 2.0});
  UnitPolicy high_cfm(UsmWeights{1.0, 2.0, 4.0, 2.0});
  Engine e1(w, &high_cr, {});
  Engine e2(w, &high_cfm, {});
  RunMetrics m_cr = e1.Run();
  RunMetrics m_cfm = e2.Run();
  EXPECT_LT(m_cr.counts.RejectionRatio(), m_cfm.counts.RejectionRatio());
}

TEST(UnitPolicyTest, StableUsmAcrossWeightSettings) {
  // The paper's Section 4.4 headline: UNIT's USM stays in a tight band even
  // when the penalty structure changes drastically.
  Workload w = StandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 1.0);
  double lo = 1e9, hi = -1e9;
  for (const auto& nw : Table2WeightsBelowOne()) {
    UnitPolicy policy(nw.request.weights);
    Engine engine(w, &policy, {});
    const double usm = UsmAverage(engine.Run().counts, nw.request.weights);
    lo = std::min(lo, usm);
    hi = std::max(hi, usm);
  }
  EXPECT_LT(hi - lo, 0.35);
  EXPECT_GT(lo, 0.0);
}

TEST(UnitPolicyTest, DeterministicRun) {
  Workload w = StandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kNegative);
  UnitPolicy p1((UsmWeights())), p2((UsmWeights()));
  Engine e1(w, &p1, {}), e2(w, &p2, {});
  RunMetrics a = e1.Run(), b = e2.Run();
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.update_commits, b.update_commits);
  EXPECT_EQ(a.updates_dropped, b.updates_dropped);
}

}  // namespace
}  // namespace unitdb
