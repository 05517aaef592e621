// Property-style sweeps over (policy x volume x distribution x seed): the
// invariants every run of the system must satisfy, regardless of parameters.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "unit/sim/experiment.h"

namespace unitdb {
namespace {

using PropertyParams =
    std::tuple<std::string, UpdateVolume, UpdateDistribution, uint64_t>;

class RunInvariantsTest : public ::testing::TestWithParam<PropertyParams> {
 protected:
  ExperimentResult Run() {
    const auto& [policy, volume, dist, seed] = GetParam();
    auto w = MakeStandardWorkload(volume, dist, /*scale=*/0.15, seed);
    EXPECT_TRUE(w.ok());
    workload_ = *w;
    auto r = RunExperiment(
        workload_, {.policy = policy, .weights = {1.0, 0.5, 1.0, 0.5}});
    EXPECT_TRUE(r.ok());
    return *r;
  }

  Workload workload_;
};

TEST_P(RunInvariantsTest, OutcomesAreConserved) {
  ExperimentResult r = Run();
  const OutcomeCounts& c = r.metrics.counts;
  EXPECT_EQ(c.submitted, static_cast<int64_t>(workload_.queries.size()));
  EXPECT_EQ(c.success + c.rejected + c.dmf + c.dsf, c.submitted);
}

TEST_P(RunInvariantsTest, UsmWithinTheoreticalRange) {
  ExperimentResult r = Run();
  // USM lies in [-max penalty, gain] (Section 2.3.2 of the paper).
  EXPECT_LE(r.usm, r.weights.gain + 1e-12);
  EXPECT_GE(r.usm, -(r.weights.Range() - r.weights.gain) - 1e-12);
}

TEST_P(RunInvariantsTest, FreshnessObservationsAreValid) {
  ExperimentResult r = Run();
  if (r.metrics.query_freshness.count() > 0) {
    EXPECT_GT(r.metrics.query_freshness.min(), 0.0);
    EXPECT_LE(r.metrics.query_freshness.max(), 1.0);
  }
}

TEST_P(RunInvariantsTest, ResponseTimesRespectDeadlines) {
  ExperimentResult r = Run();
  if (r.metrics.query_response_s.count() > 0) {
    EXPECT_GT(r.metrics.query_response_s.min(), 0.0);
    // Committed queries never outlive the longest relative deadline.
    double max_deadline_s = 0.0;
    for (const auto& q : workload_.queries) {
      max_deadline_s =
          std::max(max_deadline_s, SimToSeconds(q.relative_deadline));
    }
    EXPECT_LE(r.metrics.query_response_s.max(), max_deadline_s + 1e-6);
  }
}

TEST_P(RunInvariantsTest, CpuAccountingIsSane) {
  ExperimentResult r = Run();
  EXPECT_GE(r.metrics.busy_s, 0.0);
  // The CPU cannot do more work than wall-clock time permits. Work may
  // drain past the arrival horizon: under the worst offered load in the
  // sweep (150% updates + queries) the backlog at the horizon is under one
  // extra duration.
  EXPECT_LE(r.metrics.busy_s, 2.0 * r.metrics.duration_s);
}

TEST_P(RunInvariantsTest, UpdateAccountingBalances) {
  ExperimentResult r = Run();
  // Applications + sheds never exceed what the sources offered, plus any
  // on-demand refreshes the policy issued.
  EXPECT_LE(r.metrics.update_commits,
            workload_.TotalSourceUpdates() + r.metrics.on_demand_updates);
  EXPECT_EQ(r.metrics.update_commits, r.metrics.updates_generated);
  int64_t applied_total = 0;
  for (int64_t a : r.metrics.per_item_applied_updates) applied_total += a;
  EXPECT_EQ(applied_total, r.metrics.update_commits);
}

TEST_P(RunInvariantsTest, PerItemAccessesMatchCommittedReads) {
  ExperimentResult r = Run();
  int64_t access_total = 0;
  for (int64_t a : r.metrics.per_item_accesses) access_total += a;
  // Every committed (success or DSF) query contributes >= 1 item access;
  // rejected/DMF queries contribute none.
  const int64_t committed = r.metrics.counts.success + r.metrics.counts.dsf;
  EXPECT_GE(access_total, committed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RunInvariantsTest,
    ::testing::Combine(
        ::testing::Values(std::string("unit"), std::string("imu"),
                          std::string("odu"), std::string("qmf")),
        ::testing::Values(UpdateVolume::kLow, UpdateVolume::kMedium,
                          UpdateVolume::kHigh),
        ::testing::Values(UpdateDistribution::kUniform,
                          UpdateDistribution::kPositive,
                          UpdateDistribution::kNegative),
        ::testing::Values(42u, 1234u)),
    [](const ::testing::TestParamInfo<PropertyParams>& param_info) {
      return std::get<0>(param_info.param) + "_" +
             UpdateVolumeName(std::get<1>(param_info.param)) + "_" +
             UpdateDistributionName(std::get<2>(param_info.param)) + "_s" +
             std::to_string(std::get<3>(param_info.param));
    });

// Determinism is checked separately on a smaller sweep (it doubles runs).
class DeterminismTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(DeterminismTest, IdenticalRunsProduceIdenticalMetrics) {
  const std::string policy = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 0.1, seed);
  ASSERT_TRUE(w.ok());
  auto a = RunExperiment(*w, {.policy = policy});
  auto b = RunExperiment(*w, {.policy = policy});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->metrics.counts, b->metrics.counts);
  EXPECT_EQ(a->metrics.update_commits, b->metrics.update_commits);
  EXPECT_EQ(a->metrics.preemptions, b->metrics.preemptions);
  EXPECT_EQ(a->metrics.lock_restarts, b->metrics.lock_restarts);
  EXPECT_DOUBLE_EQ(a->metrics.busy_s, b->metrics.busy_s);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeterminismTest,
    ::testing::Combine(::testing::Values(std::string("unit"),
                                         std::string("imu"),
                                         std::string("odu"),
                                         std::string("qmf")),
                       ::testing::Values(42u, 7u)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, uint64_t>>&
           param_info) {
      return std::get<0>(param_info.param) + "_s" +
             std::to_string(std::get<1>(param_info.param));
    });

// The paper's headline ordering — UNIT's USM at least matches both naive
// baselines on every Table 1 cell — must survive when the nine cells are
// swept through the parallel grid runner at reduced scale. The ordering is
// a penalty-regime claim (Fig. 5): under naive zero-penalty weights ODU's
// free deadline misses can outscore UNIT on high-volume traces, so the
// sweep pins the high-Cfm weighting, where deadline misses are priciest.
// Below scale ~0.6 UNIT's feedback controllers have not converged and the
// ordering genuinely breaks; 0.6 is the smallest sturdy scale.
TEST(GridPropertyTest, UnitAtLeastMatchesImuAndOduOnEveryTable1Cell) {
  GridSpec spec;  // default axes: the full Table 1 trace grid
  spec.policies = {"unit", "imu", "odu"};
  spec.variants = {{"high-Cfm", {.weights = {1.0, 0.2, 0.8, 0.2}}}};
  spec.scale = 0.6;
  auto grid = RunGrid(spec, /*jobs=*/4);
  ASSERT_TRUE(grid.ok());
  ASSERT_EQ(grid->size(), 27u);  // 9 traces x 3 policies
  for (size_t t = 0; t < 9; ++t) {
    double unit = 0.0, imu = 0.0, odu = 0.0;
    std::string trace;
    for (size_t p = 0; p < 3; ++p) {
      const GridCellResult& cell = (*grid)[t * 3 + p];
      trace = cell.result.trace;
      const double usm = cell.result.usm.mean();
      if (cell.result.policy == "unit") unit = usm;
      if (cell.result.policy == "imu") imu = usm;
      if (cell.result.policy == "odu") odu = usm;
    }
    // Wins-or-ties slack, as the full-scale figure pins use.
    EXPECT_GE(unit, imu - 0.01) << trace;
    EXPECT_GE(unit, odu - 0.01) << trace;
  }
}

}  // namespace
}  // namespace unitdb
