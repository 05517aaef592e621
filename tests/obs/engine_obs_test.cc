// Engine <-> observability integration: tracing must be a pure observer
// (bit-identical metrics on or off), and real engine output must satisfy
// trace_check's invariants.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "unit/obs/trace_check.h"
#include "unit/obs/trace_reader.h"
#include "unit/obs/trace_sink.h"
#include "unit/sim/experiment.h"

namespace unitdb {
namespace {

constexpr double kScale = 0.02;

StatusOr<Workload> SmallWorkload() {
  return MakeStandardWorkload(UpdateVolume::kMedium,
                              UpdateDistribution::kUniform, kScale, 42);
}

// Attaching every obs hook changes nothing about the simulation itself.
// Same workload, same policy, same seed -> the RunMetrics agree field for
// field.
TEST(EngineObsTest, TracingDoesNotPerturbTheRun) {
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  for (const char* policy : {"imu", "odu", "qmf", "unit"}) {
    auto plain = RunExperiment(*w, {.policy = policy});
    ASSERT_TRUE(plain.ok());

    std::ostringstream trace_out;
    JsonlTraceSink sink(trace_out);
    TimeSeriesRecorder recorder;
    EngineParams ep;
    ep.trace = &sink;
    ep.series = &recorder;
    auto traced = RunExperiment(*w, {.policy = policy, .engine = ep});
    ASSERT_TRUE(traced.ok());

    SCOPED_TRACE(policy);
    EXPECT_TRUE(plain->metrics == traced->metrics);
    EXPECT_EQ(plain->usm, traced->usm);
    EXPECT_GT(sink.emitted(), 0);
    EXPECT_FALSE(recorder.samples().empty());
  }
}

TEST(EngineObsTest, EngineTracePassesTheChecker) {
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  for (const char* policy : {"imu", "odu", "qmf", "unit"}) {
    std::ostringstream trace_out;
    JsonlTraceSink sink(trace_out);
    EngineParams ep;
    ep.trace = &sink;
    auto r = RunExperiment(*w, {.policy = policy, .engine = ep});
    ASSERT_TRUE(r.ok());

    std::istringstream in(trace_out.str());
    auto events = ReadTrace(in);
    ASSERT_TRUE(events.ok()) << events.status().ToString();
    const TraceCheckResult check = CheckTrace(*events);
    SCOPED_TRACE(policy);
    EXPECT_TRUE(check.ok()) << TraceCheckSummary(check);

    // The trace retells the run the metrics summarize.
    const OutcomeCounts& c = r->metrics.counts;
    EXPECT_EQ(check.arrivals, c.submitted);
    EXPECT_EQ(check.rejects, c.rejected);
    EXPECT_EQ(check.admits, c.submitted - c.rejected);
    EXPECT_EQ(check.commits, c.success + c.dsf);
    EXPECT_EQ(check.success, c.success);
    EXPECT_EQ(check.stale, c.dsf);
    EXPECT_EQ(check.deadline_misses, c.dmf);
    EXPECT_EQ(check.update_drops, r->metrics.updates_dropped);
    EXPECT_EQ(check.update_applies, r->metrics.update_commits);
  }
}

TEST(EngineObsTest, SeriesWindowsSumToTheRunTotals) {
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  TimeSeriesRecorder recorder;
  EngineParams ep;
  ep.series = &recorder;
  auto r = RunExperiment(*w, {.policy = "unit", .engine = ep});
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(recorder.samples().empty());

  OutcomeCounts total;
  double prev_t = 0.0;
  for (const WindowSample& s : recorder.samples()) {
    EXPECT_GT(s.t_s, prev_t);  // strictly advancing sample times
    prev_t = s.t_s;
    total.submitted += s.window.submitted;
    total.success += s.window.success;
    total.rejected += s.window.rejected;
    total.dmf += s.window.dmf;
    total.dsf += s.window.dsf;
    EXPECT_GE(s.utilization, 0.0);
    EXPECT_GE(s.udrop_p90, s.udrop_p50);
    EXPECT_GE(static_cast<double>(s.udrop_max), s.udrop_p90);
  }
  EXPECT_EQ(total, r->metrics.counts);
}

TEST(EngineObsTest, RunTracedExperimentWritesTheArtifacts) {
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  ObsOptions obs;
  obs.trace_path = ::testing::TempDir() + "/obs_run.jsonl";
  obs.series_csv_path = ::testing::TempDir() + "/obs_run.csv";
  auto r = RunExperiment(*w, {.policy = "unit", .obs = obs});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->series.empty());

  auto events = ReadTraceFile(obs.trace_path);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_TRUE(CheckTrace(*events).ok());
  std::remove(obs.trace_path.c_str());
  std::remove(obs.series_csv_path.c_str());
}

}  // namespace
}  // namespace unitdb
