// Fault trace events: JSONL round-trip fidelity and the checker's invariant
// 6 (window pairing plus the LBC response-direction rule), on both synthetic
// event sequences and a real faulted engine trace.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "unit/faults/scenario.h"
#include "unit/faults/schedule.h"
#include "unit/obs/trace_check.h"
#include "unit/obs/trace_event.h"
#include "unit/obs/trace_reader.h"
#include "unit/sim/experiment.h"

namespace unitdb {
namespace {

TraceEvent FaultEvent(TraceEventType type, SimTime t, int64_t fault,
                      const char* kind, ItemId item, int64_t items,
                      double magnitude) {
  TraceEvent e;
  e.type = type;
  e.time = t;
  e.txn = fault;
  std::strncpy(e.reason, kind, sizeof(e.reason) - 1);
  e.item = item;
  e.resolved = items;
  e.magnitude = magnitude;
  return e;
}

TraceEvent LbcEvent(SimTime t, const char* signal, double r, double fm,
                    double fs) {
  TraceEvent e;
  e.type = TraceEventType::kLbcSignal;
  e.time = t;
  std::strncpy(e.reason, signal, sizeof(e.reason) - 1);
  e.r = r;
  e.fm = fm;
  e.fs = fs;
  return e;
}

TEST(FaultTraceTest, FaultEventsRoundTripThroughJsonl) {
  const TraceEvent orig =
      FaultEvent(TraceEventType::kFaultStart, MillisToSim(1234), 3,
                 "update-burst", 17, 64, 0.12345678901234567);
  char buf[512];
  const size_t n = FormatJsonl(orig, buf, sizeof(buf));
  ASSERT_GT(n, 0u);
  auto parsed = ParseTraceLine(std::string(buf, n));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->type, TraceEventType::kFaultStart);
  EXPECT_EQ(parsed->time, orig.time);
  EXPECT_EQ(parsed->txn, 3);
  EXPECT_STREQ(parsed->reason, "update-burst");
  EXPECT_EQ(parsed->item, 17);
  EXPECT_EQ(parsed->resolved, 64);
  EXPECT_EQ(parsed->magnitude, orig.magnitude);  // %.17g: bit-exact

  const TraceEvent stop =
      FaultEvent(TraceEventType::kFaultStop, MillisToSim(5678), 3,
                 "update-burst", 17, 64, 0.12345678901234567);
  const size_t m = FormatJsonl(stop, buf, sizeof(buf));
  auto parsed_stop = ParseTraceLine(std::string(buf, m));
  ASSERT_TRUE(parsed_stop.ok());
  EXPECT_EQ(parsed_stop->type, TraceEventType::kFaultStop);
}

TEST(FaultTraceCheckTest, WellFormedWindowPasses) {
  std::vector<TraceEvent> events;
  events.push_back(FaultEvent(TraceEventType::kFaultStart, 100, 0,
                              "update-outage", 0, 4, 0.0));
  events.push_back(FaultEvent(TraceEventType::kFaultStop, 200, 0,
                              "update-outage", 0, 4, 0.0));
  const TraceCheckResult r = CheckTrace(events);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations[0]);
  EXPECT_EQ(r.fault_starts, 1);
  EXPECT_EQ(r.fault_stops, 1);
}

TEST(FaultTraceCheckTest, FlagsMalformedWindows) {
  // Unclosed window.
  {
    std::vector<TraceEvent> events = {FaultEvent(
        TraceEventType::kFaultStart, 100, 0, "load-step", kInvalidItem, 0,
        20.0)};
    EXPECT_FALSE(CheckTrace(events).ok());
  }
  // Stop without start.
  {
    std::vector<TraceEvent> events = {FaultEvent(
        TraceEventType::kFaultStop, 100, 0, "load-step", kInvalidItem, 0,
        20.0)};
    EXPECT_FALSE(CheckTrace(events).ok());
  }
  // Duplicate start.
  {
    std::vector<TraceEvent> events = {
        FaultEvent(TraceEventType::kFaultStart, 100, 0, "load-step",
                   kInvalidItem, 0, 20.0),
        FaultEvent(TraceEventType::kFaultStart, 150, 0, "load-step",
                   kInvalidItem, 0, 20.0)};
    EXPECT_FALSE(CheckTrace(events).ok());
  }
  // Kind changes between start and stop.
  {
    std::vector<TraceEvent> events = {
        FaultEvent(TraceEventType::kFaultStart, 100, 0, "load-step",
                   kInvalidItem, 0, 20.0),
        FaultEvent(TraceEventType::kFaultStop, 150, 0, "service-slowdown",
                   kInvalidItem, 0, 20.0)};
    EXPECT_FALSE(CheckTrace(events).ok());
  }
  // Unknown kind.
  {
    std::vector<TraceEvent> events = {
        FaultEvent(TraceEventType::kFaultStart, 100, 0, "meteor",
                   kInvalidItem, 0, 1.0),
        FaultEvent(TraceEventType::kFaultStop, 150, 0, "meteor",
                   kInvalidItem, 0, 1.0)};
    EXPECT_FALSE(CheckTrace(events).ok());
  }
  // Item-scoped fault with no items.
  {
    std::vector<TraceEvent> events = {
        FaultEvent(TraceEventType::kFaultStart, 100, 0, "update-outage",
                   kInvalidItem, 0, 0.0),
        FaultEvent(TraceEventType::kFaultStop, 150, 0, "update-outage",
                   kInvalidItem, 0, 0.0)};
    EXPECT_FALSE(CheckTrace(events).ok());
  }
  // Global fault carrying an item span.
  {
    std::vector<TraceEvent> events = {
        FaultEvent(TraceEventType::kFaultStart, 100, 0, "service-slowdown", 0,
                   3, 2.0),
        FaultEvent(TraceEventType::kFaultStop, 150, 0, "service-slowdown", 0,
                   3, 2.0)};
    EXPECT_FALSE(CheckTrace(events).ok());
  }
  // Zero magnitude on a kind that requires one.
  {
    std::vector<TraceEvent> events = {
        FaultEvent(TraceEventType::kFaultStart, 100, 0, "service-slowdown",
                   kInvalidItem, 0, 0.0),
        FaultEvent(TraceEventType::kFaultStop, 150, 0, "service-slowdown",
                   kInvalidItem, 0, 0.0)};
    EXPECT_FALSE(CheckTrace(events).ok());
  }
}

TEST(FaultTraceCheckTest, CountsReliefSignalsDuringPressuredWindows) {
  // An outage pressures Fs; an in-window LBC evaluation whose fs ratio is
  // the strict maximum must answer "upgrade", and the checker counts it as
  // a relieving response.
  std::vector<TraceEvent> events;
  events.push_back(FaultEvent(TraceEventType::kFaultStart, 100, 0,
                              "update-outage", 0, 4, 0.0));
  events.push_back(LbcEvent(150, "upgrade", 0.1, 0.2, 0.9));
  events.push_back(FaultEvent(TraceEventType::kFaultStop, 200, 0,
                              "update-outage", 0, 4, 0.0));
  // Outside the window: not counted.
  events.push_back(LbcEvent(250, "upgrade", 0.1, 0.2, 0.9));
  const TraceCheckResult r = CheckTrace(events);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations[0]);
  EXPECT_EQ(r.fault_window_lbc_signals, 1);
  EXPECT_EQ(r.fault_window_relief_signals, 1);
  EXPECT_EQ(r.lbc_signals, 2);
}

TEST(FaultTraceCheckTest, FlagsNonRelievingSignalDuringPressuredWindow) {
  std::vector<TraceEvent> events;
  events.push_back(FaultEvent(TraceEventType::kFaultStart, 100, 0,
                              "update-outage", 0, 4, 0.0));
  // fs is the strict maximum but the controller answered the miss penalty.
  events.push_back(LbcEvent(150, "degrade+tighten", 0.1, 0.2, 0.9));
  events.push_back(FaultEvent(TraceEventType::kFaultStop, 200, 0,
                              "update-outage", 0, 4, 0.0));
  const TraceCheckResult r = CheckTrace(events);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.fault_window_relief_signals, 0);
}

TEST(FaultTraceCheckTest, LoadStepWindowSuspendsDirectionCheck) {
  // A load step pressures R and Fm together, so no single action relieves
  // it: in-window signals are tallied but carry no direction obligation.
  std::vector<TraceEvent> events;
  events.push_back(FaultEvent(TraceEventType::kFaultStart, 100, 0,
                              "load-step", kInvalidItem, 0, 20.0));
  events.push_back(LbcEvent(150, "upgrade", 0.1, 0.2, 0.9));
  events.push_back(FaultEvent(TraceEventType::kFaultStop, 200, 0,
                              "load-step", kInvalidItem, 0, 20.0));
  const TraceCheckResult r = CheckTrace(events);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations[0]);
  EXPECT_EQ(r.fault_window_lbc_signals, 1);
  EXPECT_EQ(r.fault_window_relief_signals, 0);
}

TEST(FaultTraceCheckTest, TieAmongRatiosCarriesNoObligation) {
  // LBC tie-breaking is randomized, so a non-strict maximum must not force
  // a direction: fm == fs and the controller picked the miss side.
  std::vector<TraceEvent> events;
  events.push_back(FaultEvent(TraceEventType::kFaultStart, 100, 0,
                              "update-outage", 0, 4, 0.0));
  events.push_back(LbcEvent(150, "degrade+tighten", 0.1, 0.9, 0.9));
  events.push_back(FaultEvent(TraceEventType::kFaultStop, 200, 0,
                              "update-outage", 0, 4, 0.0));
  const TraceCheckResult r = CheckTrace(events);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations[0]);
}

TEST(FaultTraceTest, RealFaultedTracePassesChecker) {
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 0.05, 42);
  ASSERT_TRUE(w.ok());
  auto spec = FaultScenarioSpec::Parse(
      "fault0.kind = update-outage\nfault0.start_s = 40\n"
      "fault0.end_s = 60\nfault0.items = *\n"
      "fault1.kind = load-step\nfault1.start_s = 50\n"
      "fault1.end_s = 70\nfault1.rate_hz = 15\n");
  ASSERT_TRUE(spec.ok());

  const std::string path = ::testing::TempDir() + "/faulted_trace.jsonl";
  auto result = RunExperiment(*w, {.policy = "unit",
                                   .weights = {1.0, 0.5, 1.0, 0.5},
                                   .scenario = *spec,
                                   .fault_seed = 42,
                                   .obs = {.trace_path = path}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto events = ReadTraceFile(path);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  const TraceCheckResult r = CheckTrace(*events);
  EXPECT_TRUE(r.ok()) << TraceCheckSummary(r);
  EXPECT_EQ(r.fault_starts, 2);
  EXPECT_EQ(r.fault_stops, 2);
  // The injected load-step queries appear as ordinary arrivals.
  EXPECT_EQ(r.arrivals, result->metrics.counts.submitted);
  EXPECT_GT(result->metrics.fault_injected_queries, 0);
}

}  // namespace
}  // namespace unitdb
