// Engine <-> observability integration: tracing must be a pure observer
// (bit-identical metrics on or off), the registry must stay empty with
// tracing off, and real engine output must satisfy trace_check's invariants.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "unit/obs/counters.h"
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

// Every field except the obs_* snapshots, bit for bit.
void ExpectSameMetrics(RunMetrics a, RunMetrics b) {
  a.obs_counters.clear();
  b.obs_counters.clear();
  EXPECT_TRUE(a == b);
}

TEST(EngineObsTest, TraceOffLeavesTheRegistryEmpty) {
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  CounterRegistry reg;
  EngineParams ep;
  ep.counters = &reg;  // registry attached, but no sink or recorder
  auto r = RunExperiment(*w, {.policy = "unit", .engine = ep});
  ASSERT_TRUE(r.ok());
  // Nothing may register into the registry on a trace-off run — this is
  // the zero-overhead-when-off contract (no counters, no allocations, no
  // branches taken on behalf of the obs layer).
  EXPECT_TRUE(reg.empty());
  EXPECT_TRUE(r->metrics.obs_counters.empty());
}

// The tentpole guarantee: attaching every obs hook changes nothing about
// the simulation itself. Same workload, same policy, same seed -> the
// RunMetrics agree field for field (obs_* excluded by construction).
TEST(EngineObsTest, TracingDoesNotPerturbTheRun) {
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  for (const char* policy : {"imu", "odu", "qmf", "unit"}) {
    auto plain = RunExperiment(*w, {.policy = policy});
    ASSERT_TRUE(plain.ok());

    std::ostringstream trace_out;
    CounterRegistry reg;
    JsonlTraceSink sink(trace_out, &reg);
    TimeSeriesRecorder recorder;
    EngineParams ep;
    ep.trace = &sink;
    ep.series = &recorder;
    ep.counters = &reg;
    auto traced = RunExperiment(*w, {.policy = policy, .engine = ep});
    ASSERT_TRUE(traced.ok());

    SCOPED_TRACE(policy);
    ExpectSameMetrics(plain->metrics, traced->metrics);
    EXPECT_EQ(plain->usm, traced->usm);
    EXPECT_GT(sink.emitted(), 0);
    EXPECT_FALSE(recorder.samples().empty());
    EXPECT_FALSE(traced->metrics.obs_counters.empty());
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

TEST(EngineObsTest, RingBufferKeepsTheTailOfTheRun) {
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  RingBufferTraceSink ring(128);
  EngineParams ep;
  ep.trace = &ring;
  auto r = RunExperiment(*w, {.policy = "unit", .engine = ep});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(ring.size(), 128u);
  EXPECT_GT(ring.overwritten(), 0);
  // Retained events are the newest, still in chronological order.
  const auto events = ring.Events();
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].time, events[i].time);
  }
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
  EXPECT_FALSE(r->metrics.obs_counters.empty());

  auto events = ReadTraceFile(obs.trace_path);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_TRUE(CheckTrace(*events).ok());
  std::remove(obs.trace_path.c_str());
  std::remove(obs.series_csv_path.c_str());
}

}  // namespace
}  // namespace unitdb
