#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

#include "unit/sim/experiment.h"
#include "unit/sim/server.h"
#include "unit/workload/trace_io.h"

namespace unitdb {
namespace {

TEST(EndToEndTest, AllFourPoliciesRunTheStandardWorkload) {
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 0.25, 42);
  ASSERT_TRUE(w.ok());
  auto results = RunPolicies(*w, {"unit", "imu", "odu", "qmf"});
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 4u);
  for (const auto& r : *results) {
    EXPECT_EQ(r.metrics.counts.resolved(), r.metrics.counts.submitted)
        << r.policy;
    EXPECT_GE(r.usm, -3.0);
    EXPECT_LE(r.usm, 1.0);
    EXPECT_DOUBLE_EQ(r.usm, r.breakdown.Value());
  }
}

TEST(EndToEndTest, UnknownPolicyFails) {
  auto w = MakeStandardWorkload(UpdateVolume::kLow,
                                UpdateDistribution::kUniform, 0.05, 1);
  ASSERT_TRUE(w.ok());
  auto result = RunExperiment(*w, {.policy = "definitely-not-a-policy"});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(EndToEndTest, NonFiniteOrNegativeUsmWeightFails) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Bad {
    UsmWeights weights;
    const char* field;
  };
  const Bad cases[] = {
      {{nan, 0, 0, 0}, "gain"},   {{inf, 0, 0, 0}, "gain"},
      {{-1, 0, 0, 0}, "gain"},    {{1, nan, 1, 0.5}, "c_r"},
      {{1, inf, 0, 0}, "c_r"},    {{1, -inf, 0, 0}, "c_r"},
      {{1, -1, 0, 0}, "c_r"},     {{1, 0, nan, 0}, "c_fm"},
      {{1, 0, inf, 0}, "c_fm"},   {{1, 0, -0.5, 0}, "c_fm"},
      {{1, 0, 0, nan}, "c_fs"},   {{1, 0, 0, inf}, "c_fs"},
      {{1, 0, 0, -2}, "c_fs"},
  };
  for (const std::string& policy : KnownPolicies()) {
    for (const Bad& bad : cases) {
      auto made = MakePolicy(policy, bad.weights);
      ASSERT_FALSE(made.ok()) << policy << " " << bad.field;
      EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(made.status().message().find(std::string("USM weight ") +
                                             bad.field + "="),
                std::string::npos)
          << made.status().message();
    }
  }
  // Zero is a weight, not an error: the naive setting and a zero gain.
  EXPECT_TRUE(MakePolicy("unit", UsmWeights{}).ok());
  EXPECT_TRUE(MakePolicy("unit", UsmWeights{0, 0, 0, 0}).ok());

  auto w = MakeStandardWorkload(UpdateVolume::kLow,
                                UpdateDistribution::kUniform, 0.05, 1);
  ASSERT_TRUE(w.ok());
  auto result = RunExperiment(
      *w, {.policy = "unit", .weights = {1, nan, 1, 0.5}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EndToEndTest, ServerFactoryKnowsAllPolicies) {
  auto w = MakeStandardWorkload(UpdateVolume::kLow,
                                UpdateDistribution::kUniform, 0.05, 1);
  ASSERT_TRUE(w.ok());
  for (const auto& name : KnownPolicies()) {
    Server::Config config;
    config.policy = name;
    auto server = Server::Create(*w, config);
    ASSERT_TRUE(server.ok()) << name;
    RunMetrics m = (*server)->Run();
    EXPECT_EQ(m.counts.resolved(), m.counts.submitted) << name;
  }
}

TEST(EndToEndTest, SavedTraceReproducesIdenticalResults) {
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kNegative, 0.1, 5);
  ASSERT_TRUE(w.ok());
  const std::string path = ::testing::TempDir() + "/unitdb_e2e_trace.csv";
  ASSERT_TRUE(SaveWorkload(*w, path).ok());
  auto loaded = LoadWorkload(path);
  ASSERT_TRUE(loaded.ok());
  std::remove(path.c_str());

  auto a = RunExperiment(*w, {.policy = "unit"});
  auto b = RunExperiment(*loaded, {.policy = "unit"});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->metrics.counts, b->metrics.counts);
  EXPECT_EQ(a->metrics.update_commits, b->metrics.update_commits);
  EXPECT_DOUBLE_EQ(a->usm, b->usm);
}

TEST(EndToEndTest, UnitBeatsImuAndQmfOnMediumUniform) {
  // The paper's headline comparison at the default evaluation point.
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 1.0, 42);
  ASSERT_TRUE(w.ok());
  auto results = RunPolicies(*w, {"unit", "imu", "qmf"});
  ASSERT_TRUE(results.ok());
  const double unit = (*results)[0].usm;
  EXPECT_GT(unit, (*results)[1].usm);
  EXPECT_GT(unit, (*results)[2].usm);
}

TEST(EndToEndTest, ImuCollapsesUnderHighUpdateVolume) {
  auto w = MakeStandardWorkload(UpdateVolume::kHigh,
                                UpdateDistribution::kUniform, 0.5, 42);
  ASSERT_TRUE(w.ok());
  auto results = RunPolicies(*w, {"unit", "imu"});
  ASSERT_TRUE(results.ok());
  EXPECT_LT((*results)[1].usm, 0.1);           // IMU near zero
  EXPECT_GT((*results)[0].usm, (*results)[1].usm + 0.3);  // UNIT far above
}

TEST(EndToEndTest, BaselinesIgnoreUsmWeights) {
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 0.1, 42);
  ASSERT_TRUE(w.ok());
  for (const char* policy : {"imu", "odu", "qmf"}) {
    auto naive = RunExperiment(*w, {.policy = policy});
    auto weighted = RunExperiment(
        *w, {.policy = policy, .weights = {1.0, 4.0, 2.0, 2.0}});
    ASSERT_TRUE(naive.ok() && weighted.ok());
    EXPECT_EQ(naive->metrics.counts, weighted->metrics.counts) << policy;
  }
}

TEST(EndToEndTest, ComponentAblationsBracketFullUnit) {
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 1.0, 42);
  ASSERT_TRUE(w.ok());
  auto results =
      RunPolicies(*w, {"unit", "unit-noac", "unit-noum", "unit-bare"});
  ASSERT_TRUE(results.ok());
  const double full = (*results)[0].usm;
  const double bare = (*results)[3].usm;
  EXPECT_GT(full, bare);
  // Each single component alone helps over bare.
  EXPECT_GT((*results)[1].usm, bare - 0.02);
  EXPECT_GT((*results)[2].usm, bare - 0.02);
}

TEST(EndToEndTest, Table2WeightSetsAreWellFormed) {
  for (const auto& nw : Table2WeightsBelowOne()) {
    const UsmWeights& w = nw.request.weights;
    EXPECT_FALSE(w.AllZeroPenalties());
    EXPECT_LT(std::max({w.c_r, w.c_fm, w.c_fs}), 1.0);
  }
  for (const auto& nw : Table2WeightsAboveOne()) {
    const UsmWeights& w = nw.request.weights;
    EXPECT_GT(std::max({w.c_r, w.c_fm, w.c_fs}), 1.0);
  }
  EXPECT_EQ(Table2WeightsBelowOne().size(), 3u);
  EXPECT_EQ(Table2WeightsAboveOne().size(), 3u);
}

}  // namespace
}  // namespace unitdb
