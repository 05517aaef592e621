#include "unit/workload/update_trace.h"

#include <gtest/gtest.h>

#include <tuple>

#include "unit/common/stats.h"
#include "unit/workload/query_trace.h"

namespace unitdb {
namespace {

Workload BaseWorkload() {
  QueryTraceParams p;
  p.num_items = 256;
  p.duration = SecondsToSim(500.0);
  p.seed = 11;
  auto w = GenerateQueryTrace(p);
  EXPECT_TRUE(w.ok());
  return *w;
}

TEST(UpdateTraceTest, NamesFollowTable1) {
  UpdateTraceParams p;
  p.volume = UpdateVolume::kLow;
  p.distribution = UpdateDistribution::kUniform;
  EXPECT_EQ(UpdateTraceName(p), "low-unif");
  p.volume = UpdateVolume::kHigh;
  p.distribution = UpdateDistribution::kNegative;
  EXPECT_EQ(UpdateTraceName(p), "high-neg");
  p.volume = UpdateVolume::kMedium;
  p.distribution = UpdateDistribution::kPositive;
  EXPECT_EQ(UpdateTraceName(p), "med-pos");
}

TEST(UpdateTraceTest, NamesParseBack) {
  for (UpdateVolume v :
       {UpdateVolume::kLow, UpdateVolume::kMedium, UpdateVolume::kHigh}) {
    UpdateVolume back = UpdateVolume::kLow;
    ASSERT_TRUE(UpdateVolumeFromName(UpdateVolumeName(v), &back));
    EXPECT_EQ(back, v);
  }
  for (UpdateDistribution d :
       {UpdateDistribution::kUniform, UpdateDistribution::kPositive,
        UpdateDistribution::kNegative}) {
    UpdateDistribution back = UpdateDistribution::kUniform;
    ASSERT_TRUE(UpdateDistributionFromName(UpdateDistributionName(d), &back));
    EXPECT_EQ(back, d);
  }
  // Unknown names fail and leave the output alone.
  UpdateVolume v = UpdateVolume::kHigh;
  for (const char* bad : {"hgih", "", "medium", "HIGH", "med "}) {
    EXPECT_FALSE(UpdateVolumeFromName(bad, &v)) << bad;
  }
  EXPECT_EQ(v, UpdateVolume::kHigh);
  UpdateDistribution d = UpdateDistribution::kPositive;
  for (const char* bad : {"negg", "", "uniform", "NEG"}) {
    EXPECT_FALSE(UpdateDistributionFromName(bad, &d)) << bad;
  }
  EXPECT_EQ(d, UpdateDistribution::kPositive);
}

TEST(UpdateTraceTest, CanonicalUtilizations) {
  EXPECT_DOUBLE_EQ(VolumeUtilization(UpdateVolume::kLow), 0.15);
  EXPECT_DOUBLE_EQ(VolumeUtilization(UpdateVolume::kMedium), 0.75);
  EXPECT_DOUBLE_EQ(VolumeUtilization(UpdateVolume::kHigh), 1.50);
}

TEST(UpdateTraceTest, ValidatesInput) {
  Workload w = BaseWorkload();
  UpdateTraceParams p;
  p.exec_lo_ms = -1;
  EXPECT_FALSE(GenerateUpdateTrace(p, w).ok());
  p = UpdateTraceParams{};
  p.utilization_override = 0.0;
  // 0.0 is "not overridden"; negative utilization cannot be expressed, and
  // the volume default applies.
  EXPECT_TRUE(GenerateUpdateTrace(p, w).ok());
  Workload empty;
  p = UpdateTraceParams{};
  EXPECT_FALSE(GenerateUpdateTrace(p, empty).ok());
}

TEST(UpdateTraceTest, CorrelatedTraceNeedsQueries) {
  Workload w;
  w.num_items = 16;
  w.duration = SecondsToSim(100.0);
  UpdateTraceParams p;
  p.distribution = UpdateDistribution::kPositive;
  EXPECT_FALSE(GenerateUpdateTrace(p, w).ok());
  // Uniform works without queries.
  p.distribution = UpdateDistribution::kUniform;
  EXPECT_TRUE(GenerateUpdateTrace(p, w).ok());
}

TEST(UpdateTraceTest, SpecsAreWellFormed) {
  Workload w = BaseWorkload();
  UpdateTraceParams p;
  p.seed = 3;
  ASSERT_TRUE(GenerateUpdateTrace(p, w).ok());
  ASSERT_FALSE(w.updates.empty());
  for (const auto& u : w.updates) {
    EXPECT_GE(u.item, 0);
    EXPECT_LT(u.item, w.num_items);
    EXPECT_GT(u.ideal_period, 0);
    EXPECT_GE(u.phase, 0);
    EXPECT_LT(u.phase, u.ideal_period);
    EXPECT_GE(u.update_exec, MillisToSim(p.exec_lo_ms));
    EXPECT_LE(u.update_exec, MillisToSim(p.exec_hi_ms) + 1);
  }
}

class UpdateTraceUtilizationTest
    : public ::testing::TestWithParam<
          std::tuple<UpdateVolume, UpdateDistribution>> {};

TEST_P(UpdateTraceUtilizationTest, HitsTargetUtilization) {
  auto [volume, dist] = GetParam();
  Workload w = BaseWorkload();
  UpdateTraceParams p;
  p.volume = volume;
  p.distribution = dist;
  p.seed = 13;
  ASSERT_TRUE(GenerateUpdateTrace(p, w).ok());
  const double target = VolumeUtilization(volume);
  EXPECT_NEAR(w.UpdateUtilization(), target, 0.12 * target + 0.02)
      << UpdateTraceName(p);
}

INSTANTIATE_TEST_SUITE_P(
    AllTraces, UpdateTraceUtilizationTest,
    ::testing::Combine(
        ::testing::Values(UpdateVolume::kLow, UpdateVolume::kMedium,
                          UpdateVolume::kHigh),
        ::testing::Values(UpdateDistribution::kUniform,
                          UpdateDistribution::kPositive,
                          UpdateDistribution::kNegative)));

TEST(UpdateTraceTest, UtilizationOverride) {
  Workload w = BaseWorkload();
  UpdateTraceParams p;
  p.utilization_override = 0.42;
  ASSERT_TRUE(GenerateUpdateTrace(p, w).ok());
  EXPECT_NEAR(w.UpdateUtilization(), 0.42, 0.08);
}

TEST(UpdateTraceTest, PositiveCorrelationMatchesQueries) {
  Workload w = BaseWorkload();
  UpdateTraceParams p;
  p.distribution = UpdateDistribution::kPositive;
  p.volume = UpdateVolume::kMedium;
  ASSERT_TRUE(GenerateUpdateTrace(p, w).ok());
  auto accesses = w.QueryAccessCounts();
  auto updates = w.SourceUpdateCounts();
  std::vector<double> a(accesses.begin(), accesses.end());
  std::vector<double> u(updates.begin(), updates.end());
  EXPECT_GT(SpearmanCorrelation(a, u), 0.55);
}

TEST(UpdateTraceTest, NegativeCorrelationOpposesQueries) {
  Workload w = BaseWorkload();
  UpdateTraceParams p;
  p.distribution = UpdateDistribution::kNegative;
  p.volume = UpdateVolume::kMedium;
  ASSERT_TRUE(GenerateUpdateTrace(p, w).ok());
  auto accesses = w.QueryAccessCounts();
  auto updates = w.SourceUpdateCounts();
  std::vector<double> a(accesses.begin(), accesses.end());
  std::vector<double> u(updates.begin(), updates.end());
  EXPECT_LT(SpearmanCorrelation(a, u), -0.55);
}

TEST(UpdateTraceTest, UniformSpreadsUpdatesEvenly) {
  Workload w = BaseWorkload();
  UpdateTraceParams p;
  p.distribution = UpdateDistribution::kUniform;
  p.volume = UpdateVolume::kHigh;
  ASSERT_TRUE(GenerateUpdateTrace(p, w).ok());
  auto counts = w.SourceUpdateCounts();
  int64_t mn = counts[0], mx = counts[0];
  for (int64_t c : counts) {
    mn = std::min(mn, c);
    mx = std::max(mx, c);
  }
  // Uniform weights with uniform exec times: per-item counts vary only via
  // the random exec draw, within a factor exec_hi/exec_lo.
  EXPECT_LT(static_cast<double>(mx),
            static_cast<double>(std::max<int64_t>(mn, 1)) * 15.0);
}

TEST(UpdateTraceTest, RegenerationReplacesSpecs) {
  Workload w = BaseWorkload();
  UpdateTraceParams p;
  ASSERT_TRUE(GenerateUpdateTrace(p, w).ok());
  const size_t first = w.updates.size();
  p.volume = UpdateVolume::kLow;
  ASSERT_TRUE(GenerateUpdateTrace(p, w).ok());
  EXPECT_EQ(w.update_trace_name, "low-unif");
  EXPECT_LE(w.updates.size(), first + w.num_items);
  // No duplicate items.
  std::vector<bool> seen(w.num_items, false);
  for (const auto& u : w.updates) {
    EXPECT_FALSE(seen[u.item]);
    seen[u.item] = true;
  }
}

}  // namespace
}  // namespace unitdb
