// Golden determinism suite for the parallel grid runner: whatever the
// worker count and completion order, a replicated RunGrid cell must be
// bit-identical to a jobs=1 run (same derived seeds, same fold order => the
// same doubles to the last bit).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "unit/sim/experiment.h"

namespace unitdb {
namespace {

// Exact (bitwise, via ==) comparison of every aggregated statistic.
void ExpectStatIdentical(const RunningStat& a, const RunningStat& b,
                         const std::string& what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.variance(), b.variance()) << what;
  EXPECT_EQ(a.sum(), b.sum()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

void ExpectReplicatedIdentical(const ReplicatedResult& a,
                               const ReplicatedResult& b) {
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.replications, b.replications);
  ExpectStatIdentical(a.usm, b.usm, a.trace + "/" + a.policy + " usm");
  ExpectStatIdentical(a.success_ratio, b.success_ratio,
                      a.trace + "/" + a.policy + " success_ratio");
  ExpectStatIdentical(a.rejection_ratio, b.rejection_ratio,
                      a.trace + "/" + a.policy + " rejection_ratio");
  ExpectStatIdentical(a.dmf_ratio, b.dmf_ratio,
                      a.trace + "/" + a.policy + " dmf_ratio");
  ExpectStatIdentical(a.dsf_ratio, b.dsf_ratio,
                      a.trace + "/" + a.policy + " dsf_ratio");
}

constexpr double kScale = 0.05;

TEST(ReplicationSeedTest, MatchesTheHistoricalSequentialDerivation) {
  EXPECT_EQ(ReplicationSeed(42, 0), 42u);
  EXPECT_EQ(ReplicationSeed(42, 3), 342u);
  EXPECT_EQ(ReplicationSeed(7, 1), 107u);
}

// One replicated cell: a one-trace, one-policy RunGrid scored by `weights`.
StatusOr<ReplicatedResult> Replicated(UpdateVolume volume,
                                      UpdateDistribution distribution,
                                      const std::string& policy,
                                      const UsmWeights& weights,
                                      int replications, int jobs,
                                      double scale = kScale) {
  GridSpec spec;
  spec.volumes = {volume};
  spec.distributions = {distribution};
  spec.policies = {policy};
  spec.variants = {{"weights", {.weights = weights}}};
  spec.replications = replications;
  spec.scale = scale;
  auto grid = RunGrid(spec, jobs);
  if (!grid.ok()) return grid.status();
  return grid->front().result;
}

TEST(RunReplicatedJobsTest, BitIdenticalToSequentialAcrossWorkerCounts) {
  for (const char* policy : {"unit", "qmf"}) {
    auto seq = Replicated(UpdateVolume::kMedium, UpdateDistribution::kUniform,
                          policy, UsmWeights{1.0, 0.5, 1.0, 0.5}, 4, 1);
    ASSERT_TRUE(seq.ok());
    for (int jobs : {2, 8}) {
      auto par =
          Replicated(UpdateVolume::kMedium, UpdateDistribution::kUniform,
                     policy, UsmWeights{1.0, 0.5, 1.0, 0.5}, 4, jobs);
      ASSERT_TRUE(par.ok()) << "jobs=" << jobs;
      ExpectReplicatedIdentical(*seq, *par);
    }
  }
}

TEST(RunReplicatedJobsTest, CellCountNotDivisibleByWorkers) {
  auto seq = Replicated(UpdateVolume::kLow, UpdateDistribution::kNegative,
                        "imu", UsmWeights{}, 5, 1);
  ASSERT_TRUE(seq.ok());
  auto par = Replicated(UpdateVolume::kLow, UpdateDistribution::kNegative,
                        "imu", UsmWeights{}, 5, /*jobs=*/2);
  ASSERT_TRUE(par.ok());
  ExpectReplicatedIdentical(*seq, *par);
}

TEST(RunReplicatedJobsTest, SingleCellEdgeCase) {
  auto seq = Replicated(UpdateVolume::kHigh, UpdateDistribution::kPositive,
                        "odu", UsmWeights{}, 1, 1);
  ASSERT_TRUE(seq.ok());
  for (int jobs : {2, 8}) {
    auto par = Replicated(UpdateVolume::kHigh, UpdateDistribution::kPositive,
                          "odu", UsmWeights{}, 1, jobs);
    ASSERT_TRUE(par.ok()) << "jobs=" << jobs;
    ExpectReplicatedIdentical(*seq, *par);
  }
}

TEST(RunReplicatedJobsTest, RejectsBadInputsLikeSequential) {
  for (int jobs : {1, 2}) {
    EXPECT_FALSE(Replicated(UpdateVolume::kLow, UpdateDistribution::kUniform,
                            "imu", UsmWeights{}, 0, jobs)
                     .ok());
    EXPECT_FALSE(Replicated(UpdateVolume::kLow, UpdateDistribution::kUniform,
                            "no-such-policy", UsmWeights{}, 3, jobs)
                     .ok());
  }
}

TEST(RunGridTest, Table1GridBitIdenticalToSequentialPerCell) {
  GridSpec spec;  // default axes: the full Table 1 trace grid
  spec.policies = {"unit"};
  spec.replications = 2;
  spec.scale = kScale;
  auto grid = RunGrid(spec, /*jobs=*/8);
  ASSERT_TRUE(grid.ok());
  ASSERT_EQ(grid->size(), 9u);
  size_t cell = 0;
  for (UpdateDistribution dist : spec.distributions) {
    for (UpdateVolume volume : spec.volumes) {
      auto seq = Replicated(volume, dist, "unit", UsmWeights{}, 2, 1);
      ASSERT_TRUE(seq.ok());
      EXPECT_EQ((*grid)[cell].volume, volume);
      EXPECT_EQ((*grid)[cell].distribution, dist);
      ExpectReplicatedIdentical(*seq, (*grid)[cell].result);
      ++cell;
    }
  }
}

TEST(RunGridTest, WorkerCountDoesNotChangeAnyCell) {
  GridSpec spec;
  spec.volumes = {UpdateVolume::kLow, UpdateVolume::kMedium};
  spec.distributions = {UpdateDistribution::kUniform,
                        UpdateDistribution::kNegative};
  spec.policies = {"unit", "imu"};
  spec.variants = {{"naive", {}},
                   {"high-Cr", {.weights = {1.0, 0.8, 0.2, 0.2}}}};
  spec.replications = 3;  // 4 traces x 2 variants x 2 policies, 3 reps
  spec.scale = kScale;
  auto one = RunGrid(spec, 1);
  auto eight = RunGrid(spec, 8);
  ASSERT_TRUE(one.ok() && eight.ok());
  ASSERT_EQ(one->size(), 16u);
  ASSERT_EQ(one->size(), eight->size());
  for (size_t i = 0; i < one->size(); ++i) {
    EXPECT_EQ((*one)[i].volume, (*eight)[i].volume);
    EXPECT_EQ((*one)[i].distribution, (*eight)[i].distribution);
    EXPECT_EQ((*one)[i].variant, (*eight)[i].variant);
    ExpectReplicatedIdentical((*one)[i].result, (*eight)[i].result);
    ASSERT_EQ((*one)[i].runs.size(), 3u);
    for (size_t r = 0; r < 3; ++r) {
      EXPECT_EQ((*one)[i].runs[r].metrics, (*eight)[i].runs[r].metrics);
    }
  }
}

TEST(RunGridTest, RejectsEmptyAxesAndUnknownPolicies) {
  GridSpec empty;
  empty.policies = {};
  EXPECT_FALSE(RunGrid(empty, 2).ok());

  GridSpec bad;
  bad.policies = {"no-such-policy"};
  bad.scale = kScale;
  EXPECT_FALSE(RunGrid(bad, 2).ok());

  GridSpec zero_reps;
  zero_reps.replications = 0;
  EXPECT_FALSE(RunGrid(zero_reps, 2).ok());
}

}  // namespace
}  // namespace unitdb
