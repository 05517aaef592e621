// Settling-time regression: the disturbance report recovers the textbook
// step-response quantities from synthetic series, and under a canned update
// outage the full UNIT policy dips less and recovers faster than the
// no-LBC ablation — with the trace confirming the controller actually
// pushed in the relieving direction.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "unit/faults/scenario.h"
#include "unit/faults/schedule.h"
#include "unit/faults/settling.h"
#include "unit/obs/trace_check.h"
#include "unit/obs/trace_reader.h"
#include "unit/sim/experiment.h"

namespace unitdb {
namespace {

/// One window per second; usm.s carries the whole per-window USM value.
std::vector<WindowSample> SyntheticSeries(const std::vector<double>& usm) {
  std::vector<WindowSample> series;
  for (size_t i = 0; i < usm.size(); ++i) {
    WindowSample s;
    s.t_s = static_cast<double>(i + 1);
    s.usm.s = usm[i];
    series.push_back(s);
  }
  return series;
}

TEST(DisturbanceTest, StepDipAndRecoveryAreMeasured) {
  // 100 s healthy at 1.0, a 20 s fault driving USM to 0, 80 s recovered.
  std::vector<double> usm(100, 1.0);
  usm.insert(usm.end(), 20, 0.0);
  usm.insert(usm.end(), 80, 1.0);
  const auto report =
      ComputeDisturbance(SyntheticSeries(usm), /*fault_start_s=*/100.0,
                         /*fault_end_s=*/120.0);
  ASSERT_TRUE(report.valid);
  EXPECT_DOUBLE_EQ(report.baseline_usm, 1.0);
  // Smoothing keeps the measured dip below the raw unit drop but it must
  // capture most of it.
  EXPECT_GT(report.dip_depth, 0.5);
  EXPECT_LE(report.dip_depth, 1.0);
  EXPECT_EQ(report.during.size(), 20u);
  // The tail returns to baseline, so the run settles at a finite time.
  EXPECT_GE(report.recover_s, 0.0);
  EXPECT_LT(report.recover_s, 80.0);
}

TEST(DisturbanceTest, FlatSeriesHasNoDipAndInstantRecovery) {
  const auto report = ComputeDisturbance(
      SyntheticSeries(std::vector<double>(200, 0.7)), 100.0, 120.0);
  ASSERT_TRUE(report.valid);
  EXPECT_NEAR(report.baseline_usm, 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(report.dip_depth, 0.0);
  EXPECT_DOUBLE_EQ(report.recover_s, 0.0);
}

TEST(DisturbanceTest, NeverRecoveringRunReportsMinusOne) {
  std::vector<double> usm(100, 1.0);
  usm.insert(usm.end(), 100, 0.0);  // dips and stays down past the window
  const auto report =
      ComputeDisturbance(SyntheticSeries(usm), 100.0, 120.0);
  ASSERT_TRUE(report.valid);
  EXPECT_GT(report.dip_depth, 0.0);
  EXPECT_DOUBLE_EQ(report.recover_s, -1.0);
}

TEST(DisturbanceTest, NoPreFaultHistoryIsInvalid) {
  // Fault starts before the first window closes: no baseline to measure
  // against.
  const auto report = ComputeDisturbance(
      SyntheticSeries(std::vector<double>(50, 1.0)), 0.5, 10.0);
  EXPECT_FALSE(report.valid);
  EXPECT_FALSE(
      ComputeDisturbance(std::vector<WindowSample>{}, 10.0, 20.0).valid);
}

TEST(DisturbanceTest, EmptyScheduleOverloadIsInvalid) {
  Workload w;
  w.num_items = 1;
  w.duration = SecondsToSim(10.0);
  auto empty = FaultSchedule::Compile(FaultScenarioSpec{}, w, 42);
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(
      ComputeDisturbance(SyntheticSeries(std::vector<double>(50, 1.0)), *empty)
          .valid);
}

/// Canned update outage over the bulk of the hot items, window at 40-70% of
/// the run — the same shape `bench_grid figure=fig7` uses.
class AdaptivityRegressionTest : public ::testing::Test {
 protected:
  static constexpr double kScale = 0.25;

  ExperimentResult RunPolicy(const std::string& policy,
                             const std::string& trace_path = "") {
    auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                  UpdateDistribution::kUniform, kScale, 42);
    EXPECT_TRUE(w.ok());
    const double duration_s = SimToSeconds(w->duration);
    auto spec = FaultScenarioSpec::Parse(
        "fault0.kind = update-outage\n"
        "fault0.start_s = " + std::to_string(0.4 * duration_s) + "\n"
        "fault0.end_s = " + std::to_string(0.7 * duration_s) + "\n"
        "fault0.items = 0-63\n");
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    auto result = RunExperiment(
        *w, {.policy = policy,
             .weights = {1.0, 0.5, 1.0, 0.5},
             .scenario = *spec,
             .fault_seed = 42,
             .obs = {.trace_path = trace_path, .series = true}});
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  }
};

TEST_F(AdaptivityRegressionTest, UnitBeatsNoLbcAblationUnderOutage) {
  const std::string trace = ::testing::TempDir() + "/adaptivity_unit.jsonl";
  const ExperimentResult unit = RunPolicy("unit", trace);
  const ExperimentResult bare = RunPolicy("unit-bare");

  ASSERT_TRUE(unit.disturbance.valid);
  ASSERT_TRUE(bare.disturbance.valid);
  // The adaptive stack absorbs the outage: shallower dip, better overall
  // USM, and a finite settling time.
  EXPECT_LT(unit.disturbance.dip_depth, bare.disturbance.dip_depth);
  EXPECT_GT(unit.usm, bare.usm);
  EXPECT_GE(unit.disturbance.recover_s, 0.0);

  // The faulted trace passes every checker invariant, including the
  // LBC-response-direction rule, and the controller demonstrably reacted
  // inside the fault window.
  auto events = ReadTraceFile(trace);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  const TraceCheckResult check = CheckTrace(*events);
  EXPECT_TRUE(check.ok()) << TraceCheckSummary(check);
  EXPECT_EQ(check.fault_starts, 1);
  EXPECT_EQ(check.fault_stops, 1);
  EXPECT_GT(check.fault_window_lbc_signals, 0);
  EXPECT_GT(check.fault_window_relief_signals, 0);
}

}  // namespace
}  // namespace unitdb
