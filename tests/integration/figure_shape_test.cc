// Regression pins on the reproduced figures' *shapes* (EXPERIMENTS.md):
// the qualitative orderings the paper reports must survive refactoring.
// These run the real evaluation workloads (scale 1.0 where the shape needs
// the full trace, smaller where it doesn't).

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "unit/sim/experiment.h"

namespace unitdb {
namespace {

std::map<std::string, double> RunCell(UpdateVolume volume,
                                      UpdateDistribution dist,
                                      const UsmWeights& weights = {}) {
  auto w = MakeStandardWorkload(volume, dist, 1.0, 42);
  EXPECT_TRUE(w.ok());
  auto results =
      RunPolicies(*w, {"unit", "imu", "odu", "qmf"}, {.weights = weights});
  EXPECT_TRUE(results.ok());
  std::map<std::string, double> usm;
  for (const auto& r : *results) usm[r.policy] = r.usm;
  return usm;
}

TEST(FigureShapeTest, Fig4MedUnif_UnitWinsQmfTrailsOdu) {
  auto usm = RunCell(UpdateVolume::kMedium, UpdateDistribution::kUniform);
  EXPECT_GT(usm["unit"], usm["imu"]);
  EXPECT_GT(usm["unit"], usm["qmf"]);
  EXPECT_GT(usm["unit"], usm["odu"] - 0.01);  // wins or ties
  EXPECT_GT(usm["odu"], usm["qmf"]);          // "QMF worse than ODU"
}

TEST(FigureShapeTest, Fig4HighVolume_ImuCollapses) {
  for (UpdateDistribution dist :
       {UpdateDistribution::kUniform, UpdateDistribution::kPositive,
        UpdateDistribution::kNegative}) {
    auto usm = RunCell(UpdateVolume::kHigh, dist);
    EXPECT_LT(usm["imu"], 0.05) << UpdateDistributionName(dist);
    EXPECT_GT(usm["unit"], usm["imu"] + 0.1) << UpdateDistributionName(dist);
  }
}

TEST(FigureShapeTest, Fig4MedPos_ImuApproachesOdu) {
  auto usm = RunCell(UpdateVolume::kMedium, UpdateDistribution::kPositive);
  // "IMU performs almost identical to ODU" under positive correlation.
  EXPECT_NEAR(usm["imu"], usm["odu"], 0.05);
}

TEST(FigureShapeTest, Fig4Neg_OduCloseToUnit) {
  for (UpdateVolume volume :
       {UpdateVolume::kLow, UpdateVolume::kMedium, UpdateVolume::kHigh}) {
    auto usm = RunCell(volume, UpdateDistribution::kNegative);
    EXPECT_NEAR(usm["unit"], usm["odu"], 0.02) << UpdateVolumeName(volume);
  }
}

TEST(FigureShapeTest, Fig4LowVolume_UnitLeads) {
  for (UpdateDistribution dist :
       {UpdateDistribution::kUniform, UpdateDistribution::kPositive}) {
    auto usm = RunCell(UpdateVolume::kLow, dist);
    EXPECT_GE(usm["unit"], usm["imu"] - 0.005) << UpdateDistributionName(dist);
    EXPECT_GE(usm["unit"], usm["odu"] - 0.005) << UpdateDistributionName(dist);
    EXPECT_GE(usm["unit"], usm["qmf"] - 0.005) << UpdateDistributionName(dist);
  }
}

TEST(FigureShapeTest, Fig5UnitStableAcrossWeightRegimes) {
  double lo = 1e9, hi = -1e9;
  for (const auto& nw : Table2WeightsBelowOne()) {
    auto usm = RunCell(UpdateVolume::kMedium, UpdateDistribution::kUniform,
                       nw.request.weights);
    lo = std::min(lo, usm["unit"]);
    hi = std::max(hi, usm["unit"]);
    // UNIT beats IMU and QMF in every weighting.
    EXPECT_GT(usm["unit"], usm["imu"]) << nw.name;
    EXPECT_GT(usm["unit"], usm["qmf"]) << nw.name;
  }
  EXPECT_LT(hi - lo, 0.15);  // the paper's stability claim
}

TEST(FigureShapeTest, Fig6UnitShiftsFailureMixWithWeights) {
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 1.0, 42);
  ASSERT_TRUE(w.ok());
  auto high_cr = RunExperiment(
      *w, {.policy = "unit", .weights = {1.0, 0.8, 0.2, 0.2}});
  auto high_cfm = RunExperiment(
      *w, {.policy = "unit", .weights = {1.0, 0.2, 0.8, 0.2}});
  ASSERT_TRUE(high_cr.ok() && high_cfm.ok());
  // Rejections smallest when rejections are priciest; DMF smallest when
  // deadline misses are priciest.
  EXPECT_LT(high_cr->metrics.counts.RejectionRatio(),
            high_cfm->metrics.counts.RejectionRatio());
  EXPECT_LT(high_cfm->metrics.counts.DmfRatio(),
            high_cr->metrics.counts.DmfRatio());
}

TEST(FigureShapeTest, QmfRejectionShareIsLargestAmongBaselines) {
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 1.0, 42);
  ASSERT_TRUE(w.ok());
  auto qmf = RunExperiment(*w, {.policy = "qmf"});
  auto imu = RunExperiment(*w, {.policy = "imu"});
  auto odu = RunExperiment(*w, {.policy = "odu"});
  ASSERT_TRUE(qmf.ok() && imu.ok() && odu.ok());
  EXPECT_GT(qmf->metrics.counts.RejectionRatio(), 0.1);
  EXPECT_EQ(imu->metrics.counts.rejected, 0);
  EXPECT_EQ(odu->metrics.counts.rejected, 0);
}

TEST(FigureShapeTest, Fig3UnitFollowsQueryDistribution) {
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kNegative, 1.0, 42);
  ASSERT_TRUE(w.ok());
  auto r = RunExperiment(*w, {.policy = "unit"});
  ASSERT_TRUE(r.ok());
  const auto src = w->SourceUpdateCounts();
  const auto accesses = w->QueryAccessCounts();
  double kept_hot = 0, src_hot = 0, kept_cold = 0, src_cold = 0;
  for (int i = 0; i < w->num_items; ++i) {
    if (accesses[i] > 0) {
      kept_hot += static_cast<double>(r->metrics.per_item_applied_updates[i]);
      src_hot += static_cast<double>(src[i]);
    } else {
      kept_cold +=
          static_cast<double>(r->metrics.per_item_applied_updates[i]);
      src_cold += static_cast<double>(src[i]);
    }
  }
  ASSERT_GT(src_hot, 0);
  ASSERT_GT(src_cold, 0);
  // med-neg: queried items keep (nearly) everything, unqueried items lose
  // most of their updates (paper: >95% dropped overall).
  EXPECT_GT(kept_hot / src_hot, 0.9);
  EXPECT_LT(kept_cold / src_cold, 0.3);
}

TEST(FigureShapeTest, UnitRobustToNoisyExecutionEstimates) {
  // The paper assumes monitored average execution times; real estimates are
  // noisy. UNIT's USM must degrade gracefully under 30% lognormal noise.
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 1.0, 42);
  ASSERT_TRUE(w.ok());
  auto exact = RunExperiment(*w, {.policy = "unit"});
  EngineParams noisy;
  noisy.estimate_noise_sigma = 0.3;
  auto noised = RunExperiment(*w, {.policy = "unit", .engine = noisy});
  ASSERT_TRUE(exact.ok() && noised.ok());
  EXPECT_GT(noised->usm, exact->usm - 0.05);
}

}  // namespace
}  // namespace unitdb
