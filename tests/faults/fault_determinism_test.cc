// Golden determinism for the fault layer: a faulted run is a pure function
// of (scenario, workload seed) — re-running reproduces the RunMetrics and
// the JSONL trace byte-for-byte, and a replicated grid cell returns results
// bit-identical to the sequential path at any worker count.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "unit/faults/scenario.h"
#include "unit/faults/schedule.h"
#include "unit/sim/experiment.h"

namespace unitdb {
namespace {

constexpr double kScale = 0.05;  // 100 s runs

FaultScenarioSpec MixedScenario() {
  auto spec = FaultScenarioSpec::Parse(
      "name = mixed\n"
      "fault0.kind = update-outage\nfault0.start_s = 40\n"
      "fault0.end_s = 60\nfault0.items = *\n"
      "fault1.kind = load-step\nfault1.start_s = 45\n"
      "fault1.end_s = 65\nfault1.rate_hz = 15\n");
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return *spec;
}

void ExpectResultIdentical(const ExperimentResult& a,
                           const ExperimentResult& b) {
  EXPECT_EQ(a.usm, b.usm);  // bitwise
  EXPECT_EQ(a.metrics.counts, b.metrics.counts);
  EXPECT_EQ(a.metrics.events_processed, b.metrics.events_processed);
  EXPECT_EQ(a.metrics.busy_s, b.metrics.busy_s);
  EXPECT_EQ(a.metrics.fault_edges, b.metrics.fault_edges);
  EXPECT_EQ(a.metrics.fault_injected_queries,
            b.metrics.fault_injected_queries);
  EXPECT_EQ(a.metrics.fault_injected_updates,
            b.metrics.fault_injected_updates);
  EXPECT_EQ(a.metrics.fault_suppressed_updates,
            b.metrics.fault_suppressed_updates);
  EXPECT_EQ(a.disturbance.valid, b.disturbance.valid);
  EXPECT_EQ(a.disturbance.baseline_usm, b.disturbance.baseline_usm);
  EXPECT_EQ(a.disturbance.dip_depth, b.disturbance.dip_depth);
  EXPECT_EQ(a.disturbance.recover_s, b.disturbance.recover_s);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].t_s, b.series[i].t_s);
    EXPECT_EQ(a.series[i].usm.Value(), b.series[i].usm.Value());
  }
}

// One cell, four replications: RunGrid runs one task per (cell,
// replication), so the replications still spread across the workers.
StatusOr<std::vector<ExperimentResult>> Replicated(int jobs) {
  GridSpec spec;
  spec.volumes = {UpdateVolume::kMedium};
  spec.distributions = {UpdateDistribution::kUniform};
  spec.variants = {{"mixed",
                    {.weights = {1.0, 0.5, 1.0, 0.5},
                     .scenario = MixedScenario(),
                     .obs = {.series = true}}}};
  spec.replications = 4;
  spec.scale = kScale;
  auto grid = RunGrid(spec, jobs);
  if (!grid.ok()) return grid.status();
  return grid->front().runs;
}

TEST(FaultDeterminismTest, ReplicatedBitIdenticalAcrossWorkerCounts) {
  auto seq = Replicated(/*jobs=*/1);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ASSERT_EQ(seq->size(), 4u);
  // Replications must actually differ (each draws its own workload and
  // injection stream) or the parallel comparison proves nothing.
  EXPECT_NE((*seq)[0].usm, (*seq)[1].usm);
  for (int jobs : {2, 4, 8}) {
    auto par = Replicated(jobs);
    ASSERT_TRUE(par.ok()) << "jobs=" << jobs;
    ASSERT_EQ(par->size(), seq->size());
    for (size_t i = 0; i < seq->size(); ++i) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) + " replication " +
                   std::to_string(i));
      ExpectResultIdentical((*seq)[i], (*par)[i]);
    }
  }
}

TEST(FaultDeterminismTest, SameSeedReproducesMetricsAndTrace) {
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, kScale, 42);
  ASSERT_TRUE(w.ok());
  auto schedule = FaultSchedule::Compile(MixedScenario(), *w, 42);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  ASSERT_FALSE(schedule->empty());

  const std::string path_a = ::testing::TempDir() + "/fault_det_a.jsonl";
  const std::string path_b = ::testing::TempDir() + "/fault_det_b.jsonl";
  RunRequest request{.policy = "unit",
                     .weights = {1.0, 0.5, 1.0, 0.5},
                     .scenario = MixedScenario(),
                     .fault_seed = 42,
                     .obs = {.trace_path = path_a, .series = true}};
  auto a = RunExperiment(*w, request);
  request.obs.trace_path = path_b;
  auto b = RunExperiment(*w, request);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectResultIdentical(*a, *b);
  EXPECT_GT(a->metrics.fault_edges, 0);
  EXPECT_TRUE(a->disturbance.valid);

  const auto slurp = [](const std::string& path) {
    std::ifstream f(path);
    std::ostringstream text;
    text << f.rdbuf();
    return text.str();
  };
  const std::string trace_a = slurp(path_a);
  ASSERT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, slurp(path_b));  // byte-identical trace
  EXPECT_NE(trace_a.find("fault-start"), std::string::npos);
  EXPECT_NE(trace_a.find("fault-stop"), std::string::npos);
}

TEST(FaultDeterminismTest, ScenarioSeedDecorrelatesInjection) {
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, kScale, 42);
  ASSERT_TRUE(w.ok());
  FaultScenarioSpec a = MixedScenario();
  FaultScenarioSpec b = a;
  b.seed = a.seed + 1;
  auto sa = FaultSchedule::Compile(a, *w, 42);
  auto sb = FaultSchedule::Compile(b, *w, 42);
  ASSERT_TRUE(sa.ok() && sb.ok());
  bool differs =
      sa->injected_queries().size() != sb->injected_queries().size();
  for (size_t i = 0; !differs && i < sa->injected_queries().size(); ++i) {
    differs =
        sa->injected_queries()[i].arrival != sb->injected_queries()[i].arrival;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace unitdb
