// Golden pins: one canonical configuration per policy with exact committed
// RunMetrics values. These runs are fully deterministic (fixed workload
// seed, fixed engine seed, sequential execution), so any drift — a changed
// tie-break, a reordered event, a float reassociation — fails here with
// the precise field that moved. Update the pins only for an intentional,
// explained semantic change.
//
// Canonical cell: MakeStandardWorkload(kMedium, kUniform, scale=0.05,
// seed=42), Table-2-style weights (c_r=0.5, c_fm=1.0, c_fs=1.0), default
// EngineParams and PolicyOptions.

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "unit/model/diff.h"
#include "unit/sim/experiment.h"

namespace unitdb {
namespace {

struct GoldenPin {
  const char* policy;
  int64_t submitted, success, rejected, dmf, dsf;
  int64_t update_commits, updates_dropped, preemptions, lock_restarts;
  int64_t on_demand_updates;
  double busy_s;
  double freshness_mean;
  double response_mean;
  double usm;
};

// Values captured from the engine at the commit that introduced this test;
// doubles are round-trip exact (%.17g).
constexpr GoldenPin kPins[] = {
    {"unit", 598, 423, 57, 118, 0, 227, 0, 75, 0, 0,
     91.254100999999949, 1.0, 1.9121974917257676, 0.46237458193979936},
    {"imu", 598, 425, 0, 173, 0, 227, 0, 75, 0, 0,
     91.335194999999928, 1.0, 1.9790263882352936, 0.42140468227424749},
    {"odu", 598, 596, 0, 2, 0, 12, 0, 65, 0, 12,
     27.349625000000024, 1.0, 0.31782207214765085, 0.99331103678929766},
    {"qmf", 598, 422, 11, 165, 0, 227, 0, 92, 0, 0,
     91.223163999999926, 1.0, 1.9503783507109, 0.4205685618729097},
};

// Names the parameter in test output and ctest names.
void PrintTo(const GoldenPin& pin, std::ostream* os) { *os << pin.policy; }

class GoldenPinTest : public ::testing::TestWithParam<GoldenPin> {};

TEST_P(GoldenPinTest, CanonicalRunMatchesCommittedMetrics) {
  const GoldenPin& pin = GetParam();
  auto workload = MakeStandardWorkload(UpdateVolume::kMedium,
                                       UpdateDistribution::kUniform, 0.05, 42);
  ASSERT_TRUE(workload.ok());
  UsmWeights w;
  w.c_r = 0.5;
  w.c_fm = 1.0;
  w.c_fs = 1.0;
  auto result = RunExperiment(*workload, {.policy = pin.policy, .weights = w});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunMetrics& m = result->metrics;
  EXPECT_EQ(m.counts.submitted, pin.submitted);
  EXPECT_EQ(m.counts.success, pin.success);
  EXPECT_EQ(m.counts.rejected, pin.rejected);
  EXPECT_EQ(m.counts.dmf, pin.dmf);
  EXPECT_EQ(m.counts.dsf, pin.dsf);
  EXPECT_EQ(m.update_commits, pin.update_commits);
  EXPECT_EQ(m.updates_dropped, pin.updates_dropped);
  EXPECT_EQ(m.preemptions, pin.preemptions);
  EXPECT_EQ(m.lock_restarts, pin.lock_restarts);
  EXPECT_EQ(m.on_demand_updates, pin.on_demand_updates);
  EXPECT_DOUBLE_EQ(m.busy_s, pin.busy_s);
  EXPECT_DOUBLE_EQ(m.query_freshness.mean(), pin.freshness_mean);
  EXPECT_DOUBLE_EQ(m.query_response_s.mean(), pin.response_mean);
  EXPECT_DOUBLE_EQ(result->usm, pin.usm);
}

TEST_P(GoldenPinTest, ReferenceModelReproducesTheSamePin) {
  const GoldenPin& pin = GetParam();
  auto workload = MakeStandardWorkload(UpdateVolume::kMedium,
                                       UpdateDistribution::kUniform, 0.05, 42);
  ASSERT_TRUE(workload.ok());
  DiffCase c;
  c.workload = *workload;
  c.policy = pin.policy;
  c.weights.c_r = 0.5;
  c.weights.c_fm = 1.0;
  c.weights.c_fs = 1.0;
  auto diff = RunDiff(c);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_TRUE(diff->equivalent) << diff->divergence_count << " divergences";
  EXPECT_EQ(diff->reference.metrics.counts.success, pin.success);
  EXPECT_EQ(diff->reference.metrics.counts.rejected, pin.rejected);
  EXPECT_EQ(diff->reference.metrics.counts.dmf, pin.dmf);
  EXPECT_DOUBLE_EQ(diff->reference.metrics.busy_s, pin.busy_s);
}

std::string PinName(const ::testing::TestParamInfo<GoldenPin>& pin_info) {
  return pin_info.param.policy;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, GoldenPinTest,
                         ::testing::ValuesIn(kPins), PinName);

}  // namespace
}  // namespace unitdb
