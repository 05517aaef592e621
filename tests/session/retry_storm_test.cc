// Retry-storm settling regression: under a canned storm of tight-deadline
// injected queries, (a) the full UNIT stack beats the no-LBC ablation at
// equal shedding — higher USM, faster settling, never more abandoned
// sessions — and (b) overload shedding bounds the USM dip that an unshed
// run takes, while the unshed no-LBC ablation never settles at all. The
// paper's user-centric claim extended to the closed loop, where unshed
// backlog turns into retry amplification that keeps the system depressed
// after the storm passes.

#include <gtest/gtest.h>

#include <string>

#include "unit/faults/scenario.h"
#include "unit/faults/schedule.h"
#include "unit/faults/settling.h"
#include "unit/obs/trace_check.h"
#include "unit/obs/trace_reader.h"
#include "unit/sim/experiment.h"

namespace unitdb {
namespace {

/// Canned retry storm at 40-70% of the run, closed-loop sessions attached —
/// the same shape `bench_grid figure=fig8` sweeps.
class RetryStormRegressionTest : public ::testing::Test {
 protected:
  static constexpr double kScale = 0.25;

  ExperimentResult RunVariant(const std::string& policy, int shed_watermark,
                              const std::string& trace_path = "") {
    auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                  UpdateDistribution::kUniform, kScale, 42);
    EXPECT_TRUE(w.ok());
    const double duration_s = SimToSeconds(w->duration);
    auto spec = FaultScenarioSpec::Parse(
        "fault0.kind = retry-storm\n"
        "fault0.start_s = " + std::to_string(0.4 * duration_s) + "\n"
        "fault0.end_s = " + std::to_string(0.7 * duration_s) + "\n"
        "fault0.rate_hz = 40\n");
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    RunRequest request{.policy = policy,
                       .weights = {1.0, 0.5, 1.0, 0.5},
                       .scenario = *spec,
                       .fault_seed = 42,
                       .obs = {.trace_path = trace_path, .series = true}};
    request.engine.session.sessions = 24;
    request.engine.session.max_retries = 3;
    request.engine.session.patience = SecondsToSim(5.0);
    request.engine.shed_watermark = shed_watermark;
    auto result = RunExperiment(*w, request);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  }
};

TEST_F(RetryStormRegressionTest, UnitBeatsNoLbcAblationAtEqualShedding) {
  const std::string trace = ::testing::TempDir() + "/retry_storm_unit.jsonl";
  const ExperimentResult unit = RunVariant("unit", /*shed_watermark=*/8,
                                           trace);
  const ExperimentResult bare = RunVariant("unit-bare", /*shed_watermark=*/8);

  ASSERT_TRUE(unit.disturbance.valid);
  ASSERT_TRUE(bare.disturbance.valid);
  // The storm actually closed the loop on both variants.
  EXPECT_GT(unit.metrics.session_retries, 0);
  EXPECT_GT(bare.metrics.session_retries, 0);
  EXPECT_GT(unit.metrics.queries_shed, 0);
  EXPECT_GT(bare.metrics.queries_shed, 0);

  // With the shedding knob held equal, the adaptive stack keeps users
  // better off than the no-LBC ablation: higher USM, recovery no slower
  // (recover_s of -1 means "never settled" and loses to any finite time),
  // and never more abandoned sessions.
  EXPECT_GE(unit.usm, bare.usm);
  ASSERT_GE(unit.disturbance.recover_s, 0.0);
  if (bare.disturbance.recover_s >= 0.0) {
    EXPECT_LE(unit.disturbance.recover_s, bare.disturbance.recover_s);
  }
  EXPECT_LE(unit.metrics.session_abandons, bare.metrics.session_abandons);

  // The stormy closed-loop trace passes every invariant — lifecycle,
  // freshness accounting, and the session discipline (invariant 7).
  auto events = ReadTraceFile(trace);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  const TraceCheckResult check = CheckTrace(*events);
  EXPECT_TRUE(check.ok()) << TraceCheckSummary(check);
  EXPECT_EQ(check.fault_starts, 1);
  EXPECT_EQ(check.fault_stops, 1);
  EXPECT_GT(check.session_retries, 0);
  EXPECT_GT(check.sheds, 0);
}

TEST_F(RetryStormRegressionTest, SheddingBoundsTheDipAndUnshedBareNeverSettles) {
  const ExperimentResult shed = RunVariant("unit", /*shed_watermark=*/8);
  const ExperimentResult unshed = RunVariant("unit", /*shed_watermark=*/0);
  const ExperimentResult bare_unshed =
      RunVariant("unit-bare", /*shed_watermark=*/0);

  ASSERT_TRUE(shed.disturbance.valid);
  ASSERT_TRUE(unshed.disturbance.valid);
  ASSERT_TRUE(bare_unshed.disturbance.valid);
  EXPECT_EQ(unshed.metrics.queries_shed, 0);

  // Drop-oldest shedding absorbs the worst of the storm: the USM dip stays
  // strictly shallower than the unshed run's.
  EXPECT_LT(shed.disturbance.dip_depth, unshed.disturbance.dip_depth);

  // Without LBC or shedding the backlog-plus-retry spiral keeps USM
  // depressed: the run never re-enters the settling band, while the full
  // stack with shedding recovers at a finite time and a far better USM.
  EXPECT_GE(shed.disturbance.recover_s, 0.0);
  EXPECT_LT(bare_unshed.disturbance.recover_s, 0.0);
  EXPECT_GT(shed.usm, bare_unshed.usm);
}

TEST_F(RetryStormRegressionTest, StormMetricsConserveSessions) {
  for (int watermark : {0, 8}) {
    const ExperimentResult r = RunVariant("unit", watermark);
    EXPECT_EQ(r.metrics.session_requests,
              r.metrics.session_successes + r.metrics.session_abandons)
        << "watermark=" << watermark;
    EXPECT_LE(r.metrics.session_retries, r.metrics.session_requests * 3)
        << "watermark=" << watermark;
  }
}

}  // namespace
}  // namespace unitdb
