#include "unit/core/policies/hybrid.h"

#include <gtest/gtest.h>

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

TEST(HybridPolicyTest, ResolvesEveryQuery) {
  Workload w = StandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform);
  HybridPolicy policy((UsmWeights()));
  Engine engine(w, &policy, {});
  RunMetrics m = engine.Run();
  EXPECT_EQ(m.counts.resolved(), m.counts.submitted);
}

TEST(HybridPolicyTest, IssuesJustInTimeRepairs) {
  Workload w = StandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 1.0);
  HybridPolicy policy((UsmWeights()));
  Engine engine(w, &policy, {});
  RunMetrics m = engine.Run();
  EXPECT_GT(policy.repairs_issued(), 0);
  EXPECT_GT(m.on_demand_updates, 0);
}

TEST(HybridPolicyTest, NearZeroStaleFailures) {
  // The just-in-time repair is exactly a staleness eliminator.
  Workload w = StandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 1.0);
  HybridPolicy policy((UsmWeights()));
  Engine engine(w, &policy, {});
  RunMetrics m = engine.Run();
  EXPECT_LT(m.counts.DsfRatio(), 0.01);
}

TEST(HybridPolicyTest, AtLeastMatchesPlainUnit) {
  Workload w = StandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 1.0);
  HybridPolicy hybrid((UsmWeights()));
  Engine e1(w, &hybrid, {});
  const double hybrid_usm =
      UsmAverage(e1.Run().counts, UsmWeights{});
  auto unit = RunExperiment(w, {.policy = "unit"});
  ASSERT_TRUE(unit.ok());
  EXPECT_GE(hybrid_usm, unit->usm - 0.01);
}

TEST(HybridPolicyTest, ClosesTheHighPosGapToOdu) {
  // The Fig. 4 deviation (EXPERIMENTS.md): plain UNIT trails ODU badly at
  // high-pos (0.17 vs 0.32); the hybrid must land within a few points.
  Workload w = StandardWorkload(UpdateVolume::kHigh,
                                UpdateDistribution::kPositive, 1.0);
  auto results =
      RunPolicies(w, {"unit-hybrid", "odu", "unit"});
  ASSERT_TRUE(results.ok());
  EXPECT_GE((*results)[0].usm, (*results)[1].usm - 0.05);  // ~ ODU
  EXPECT_GT((*results)[0].usm, (*results)[2].usm + 0.05);  // >> plain UNIT
}

TEST(HybridPolicyTest, AvailableFromTheFactory) {
  Workload w = StandardWorkload(UpdateVolume::kLow,
                                UpdateDistribution::kUniform, 0.05);
  auto r = RunExperiment(w, {.policy = "unit-hybrid"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->policy, "unit-hybrid");
}

}  // namespace
}  // namespace unitdb
