// Scenario grammar and schedule compilation: the fault layer's contract is
// that a (spec, workload, seed) triple always compiles to the bit-identical
// pre-materialized schedule, and that every malformed spec fails loudly at
// parse or compile time rather than injecting silently wrong disturbances.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "unit/faults/scenario.h"
#include "unit/faults/schedule.h"
#include "unit/workload/query_source.h"
#include "unit/workload/query_trace.h"
#include "unit/workload/spec.h"

namespace unitdb {
namespace {

/// 4 items, sources on items 0 and 1 only, a query every 0.5 s, 100 s run.
Workload SmallWorkload() {
  Workload w;
  w.num_items = 4;
  w.duration = SecondsToSim(100.0);
  for (int i = 0; i < 200; ++i) {
    QueryRequest q;
    q.id = i;
    q.arrival = SecondsToSim(0.5 * i);
    q.exec = MillisToSim(20);
    q.relative_deadline = SecondsToSim(1.0);
    q.freshness_req = 0.6;
    q.items = {static_cast<ItemId>(i % 2)};
    w.queries.push_back(q);
  }
  for (ItemId item : {0, 1}) {
    ItemUpdateSpec s;
    s.item = item;
    s.ideal_period = SecondsToSim(1.0);
    s.update_exec = MillisToSim(10);
    s.phase = MillisToSim(100 * (item + 1));
    w.updates.push_back(s);
  }
  return w;
}

TEST(FaultKindTest, NamesRoundTrip) {
  for (FaultKind kind :
       {FaultKind::kUpdateOutage, FaultKind::kUpdateBurst,
        FaultKind::kLoadStep, FaultKind::kServiceSlowdown,
        FaultKind::kFreshnessShift}) {
    FaultKind back;
    ASSERT_TRUE(FaultKindFromName(FaultKindName(kind), &back))
        << FaultKindName(kind);
    EXPECT_EQ(back, kind);
  }
  FaultKind ignored;
  EXPECT_FALSE(FaultKindFromName("power-failure", &ignored));
}

TEST(FaultScenarioSpecTest, ParsesAllFiveKinds) {
  auto spec = FaultScenarioSpec::Parse(
      "name = everything\n"
      "seed = 99\n"
      "fault0.kind = update-outage\n"
      "fault0.start_s = 10\nfault0.end_s = 20\nfault0.items = 0-1\n"
      "fault1.kind = update-burst\n"
      "fault1.start_s = 25\nfault1.end_s = 30\nfault1.items = 0,1\n"
      "fault1.rate_hz = 4\n"
      "fault2.kind = load-step\n"
      "fault2.start_s = 35\nfault2.end_s = 45\nfault2.rate_hz = 20\n"
      "fault3.kind = service-slowdown\n"
      "fault3.start_s = 50\nfault3.end_s = 55\nfault3.factor = 2.5\n"
      "fault4.kind = freshness-shift\n"
      "fault4.start_s = 60\nfault4.end_s = 70\nfault4.delta = 0.3\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "everything");
  EXPECT_EQ(spec->seed, 99u);
  ASSERT_EQ(spec->faults.size(), 5u);
  EXPECT_EQ(spec->faults[0].kind, FaultKind::kUpdateOutage);
  EXPECT_EQ(spec->faults[0].items, "0-1");
  EXPECT_EQ(spec->faults[1].kind, FaultKind::kUpdateBurst);
  EXPECT_DOUBLE_EQ(spec->faults[1].rate_hz, 4.0);
  EXPECT_EQ(spec->faults[2].kind, FaultKind::kLoadStep);
  EXPECT_DOUBLE_EQ(spec->faults[3].factor, 2.5);
  EXPECT_DOUBLE_EQ(spec->faults[4].delta, 0.3);
}

TEST(FaultScenarioSpecTest, EmptySpecIsValidAndEmpty) {
  auto spec = FaultScenarioSpec::Parse("name = quiet\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec->empty());
}

TEST(FaultScenarioSpecTest, RejectsMalformedSpecs) {
  const struct {
    const char* what;
    const char* text;
  } cases[] = {
      {"unknown top-level key", "bogus = 1\n"},
      {"unknown kind",
       "fault0.kind = meteor\nfault0.start_s = 1\nfault0.end_s = 2\n"},
      {"missing start/end", "fault0.kind = load-step\nfault0.rate_hz = 5\n"},
      {"inverted window",
       "fault0.kind = load-step\nfault0.start_s = 5\nfault0.end_s = 5\n"
       "fault0.rate_hz = 5\n"},
      {"negative start",
       "fault0.kind = load-step\nfault0.start_s = -1\nfault0.end_s = 5\n"
       "fault0.rate_hz = 5\n"},
      {"burst without rate",
       "fault0.kind = update-burst\nfault0.start_s = 1\nfault0.end_s = 2\n"
       "fault0.items = 0\n"},
      {"outage without items",
       "fault0.kind = update-outage\nfault0.start_s = 1\nfault0.end_s = 2\n"},
      {"outage with stray factor",
       "fault0.kind = update-outage\nfault0.start_s = 1\nfault0.end_s = 2\n"
       "fault0.items = 0\nfault0.factor = 2\n"},
      {"slowdown with stray items",
       "fault0.kind = service-slowdown\nfault0.start_s = 1\n"
       "fault0.end_s = 2\nfault0.factor = 2\nfault0.items = 0\n"},
      {"zero freshness delta",
       "fault0.kind = freshness-shift\nfault0.start_s = 1\nfault0.end_s = 2\n"
       "fault0.delta = 0\n"},
      {"non-dense index (fault1 without fault0)",
       "fault1.kind = load-step\nfault1.start_s = 1\nfault1.end_s = 2\n"
       "fault1.rate_hz = 5\n"},
      {"overlapping slowdown windows",
       "fault0.kind = service-slowdown\nfault0.start_s = 10\n"
       "fault0.end_s = 30\nfault0.factor = 2\n"
       "fault1.kind = service-slowdown\nfault1.start_s = 20\n"
       "fault1.end_s = 40\nfault1.factor = 3\n"},
  };
  for (const auto& c : cases) {
    auto spec = FaultScenarioSpec::Parse(c.text);
    EXPECT_FALSE(spec.ok()) << c.what;
  }
  // Back-to-back scalar windows (no overlap) are fine.
  EXPECT_TRUE(FaultScenarioSpec::Parse(
                  "fault0.kind = service-slowdown\nfault0.start_s = 10\n"
                  "fault0.end_s = 20\nfault0.factor = 2\n"
                  "fault1.kind = service-slowdown\nfault1.start_s = 20\n"
                  "fault1.end_s = 30\nfault1.factor = 3\n")
                  .ok());
}

// A number with trailing junk would otherwise parse as its prefix ("2s" as
// 2) and yield a valid-looking window.
TEST(FaultScenarioSpecTest, RejectsMalformedNumbers) {
  auto spec = FaultScenarioSpec::Parse(
      "fault0.kind = load-step\nfault0.start_s = 1\nfault0.end_s = 2s\n"
      "fault0.rate_hz = 5\n");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("fault0.end_s=2s"), std::string::npos)
      << spec.status().ToString();
  EXPECT_FALSE(FaultScenarioSpec::Parse("name = quiet\nseed = abc\n").ok());
}

TEST(FaultScheduleTest, EmptySpecCompilesToEmptySchedule) {
  const Workload w = SmallWorkload();
  auto s = FaultSchedule::Compile(FaultScenarioSpec{}, w, 42);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->empty());
  EXPECT_TRUE(s->edges().empty());
  EXPECT_TRUE(s->injected_queries().empty());
  EXPECT_TRUE(s->injected_updates().empty());
}

TEST(FaultScheduleTest, WindowOutsideRunFailsAndOverhangClamps) {
  const Workload w = SmallWorkload();  // 100 s
  auto past_end = FaultScenarioSpec::Parse(
      "fault0.kind = load-step\nfault0.start_s = 150\nfault0.end_s = 160\n"
      "fault0.rate_hz = 5\n");
  ASSERT_TRUE(past_end.ok());
  EXPECT_FALSE(FaultSchedule::Compile(*past_end, w, 42).ok());

  auto overhang = FaultScenarioSpec::Parse(
      "fault0.kind = load-step\nfault0.start_s = 90\nfault0.end_s = 160\n"
      "fault0.rate_hz = 5\n");
  ASSERT_TRUE(overhang.ok());
  auto s = FaultSchedule::Compile(*overhang, w, 42);
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s->edges().size(), 2u);
  EXPECT_EQ(s->edges()[1].time, w.duration);  // clamped stop edge
  EXPECT_EQ(s->envelope_end(), w.duration);
}

TEST(FaultScheduleTest, ItemSelectorsResolveAgainstSources) {
  const Workload w = SmallWorkload();  // sources on items 0, 1 of 4
  const auto outage = [](const std::string& items) {
    return FaultScenarioSpec::Parse("fault0.kind = update-outage\n"
                                    "fault0.start_s = 10\nfault0.end_s = 20\n"
                                    "fault0.items = " + items + "\n");
  };
  auto range = FaultSchedule::Compile(*outage("0-1"), w, 42);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->items(), (std::vector<ItemId>{0, 1}));

  auto list = FaultSchedule::Compile(*outage("1,0"), w, 42);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->items(), (std::vector<ItemId>{1, 0}));

  // '*' matches only items that actually have an update source.
  auto star = FaultSchedule::Compile(*outage("*"), w, 42);
  ASSERT_TRUE(star.ok());
  EXPECT_EQ(star->items(), (std::vector<ItemId>{0, 1}));

  // Items 2/3 exist but have no source; an outage there would be a no-op.
  EXPECT_FALSE(FaultSchedule::Compile(*outage("2"), w, 42).ok());
  EXPECT_FALSE(FaultSchedule::Compile(*outage("0-3"), w, 42).ok());
  EXPECT_FALSE(FaultSchedule::Compile(*outage("7"), w, 42).ok());
  EXPECT_FALSE(FaultSchedule::Compile(*outage("x"), w, 42).ok());
}

TEST(FaultScheduleTest, LoadStepInjectsSeededQueriesInsideWindow) {
  const Workload w = SmallWorkload();
  auto spec = FaultScenarioSpec::Parse(
      "fault0.kind = load-step\nfault0.start_s = 10\nfault0.end_s = 30\n"
      "fault0.rate_hz = 10\n");
  ASSERT_TRUE(spec.ok());
  auto s = FaultSchedule::Compile(*spec, w, 42);
  ASSERT_TRUE(s.ok());
  // ~10 Hz over 20 s: Poisson, but far from 0 and from 2x the mean.
  EXPECT_GT(s->injected_queries().size(), 100u);
  EXPECT_LT(s->injected_queries().size(), 400u);
  SimTime prev = 0;
  for (const QueryRequest& q : s->injected_queries()) {
    EXPECT_EQ(q.id, kInvalidTxn);  // engine assigns transaction ids
    EXPECT_GE(q.arrival, SecondsToSim(10.0));
    EXPECT_LT(q.arrival, SecondsToSim(30.0));
    EXPECT_GE(q.arrival, prev);  // sorted
    EXPECT_FALSE(q.items.empty());  // cloned from a real template
    prev = q.arrival;
  }
}

TEST(FaultScheduleTest, BurstInjectsPerItemDeliveries) {
  const Workload w = SmallWorkload();
  auto spec = FaultScenarioSpec::Parse(
      "fault0.kind = update-burst\nfault0.start_s = 10\nfault0.end_s = 20\n"
      "fault0.items = 0-1\nfault0.rate_hz = 2\n");
  ASSERT_TRUE(spec.ok());
  auto s = FaultSchedule::Compile(*spec, w, 42);
  ASSERT_TRUE(s.ok());
  // 2 Hz x 10 s x 2 items = 40 deliveries (each item's phase may trim one).
  EXPECT_GE(s->injected_updates().size(), 38u);
  EXPECT_LE(s->injected_updates().size(), 40u);
  SimTime prev = 0;
  for (const InjectedUpdate& u : s->injected_updates()) {
    EXPECT_TRUE(u.item == 0 || u.item == 1);
    EXPECT_GE(u.time, SecondsToSim(10.0));
    EXPECT_LT(u.time, SecondsToSim(20.0));
    EXPECT_GE(u.time, prev);
    prev = u.time;
  }
}

TEST(FaultScheduleTest, EdgesSortStopsBeforeStartsAtEqualTimes) {
  const Workload w = SmallWorkload();
  auto spec = FaultScenarioSpec::Parse(
      "fault0.kind = service-slowdown\nfault0.start_s = 10\n"
      "fault0.end_s = 20\nfault0.factor = 2\n"
      "fault1.kind = service-slowdown\nfault1.start_s = 20\n"
      "fault1.end_s = 30\nfault1.factor = 3\n");
  ASSERT_TRUE(spec.ok());
  auto s = FaultSchedule::Compile(*spec, w, 42);
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s->edges().size(), 4u);
  // At t = 20 s the stop of fault0 must precede the start of fault1 so the
  // engine restores the baseline scale before applying the next factor.
  EXPECT_EQ(s->edges()[1].time, SecondsToSim(20.0));
  EXPECT_FALSE(s->edges()[1].start);
  EXPECT_EQ(s->edges()[1].fault, 0);
  EXPECT_EQ(s->edges()[2].time, SecondsToSim(20.0));
  EXPECT_TRUE(s->edges()[2].start);
  EXPECT_EQ(s->edges()[2].fault, 1);
  EXPECT_EQ(s->envelope_start(), SecondsToSim(10.0));
  EXPECT_EQ(s->envelope_end(), SecondsToSim(30.0));
}

TEST(FaultScheduleTest, CompilationIsDeterministicPerSeedPair) {
  const Workload w = SmallWorkload();
  auto spec = FaultScenarioSpec::Parse(
      "fault0.kind = load-step\nfault0.start_s = 10\nfault0.end_s = 40\n"
      "fault0.rate_hz = 8\n"
      "fault1.kind = update-burst\nfault1.start_s = 15\nfault1.end_s = 25\n"
      "fault1.items = *\nfault1.rate_hz = 3\n");
  ASSERT_TRUE(spec.ok());
  auto a = FaultSchedule::Compile(*spec, w, 42);
  auto b = FaultSchedule::Compile(*spec, w, 42);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->injected_queries().size(), b->injected_queries().size());
  for (size_t i = 0; i < a->injected_queries().size(); ++i) {
    EXPECT_EQ(a->injected_queries()[i].arrival,
              b->injected_queries()[i].arrival);
    EXPECT_EQ(a->injected_queries()[i].items, b->injected_queries()[i].items);
  }
  ASSERT_EQ(a->injected_updates().size(), b->injected_updates().size());
  for (size_t i = 0; i < a->injected_updates().size(); ++i) {
    EXPECT_EQ(a->injected_updates()[i].time, b->injected_updates()[i].time);
    EXPECT_EQ(a->injected_updates()[i].item, b->injected_updates()[i].item);
  }

  // A different workload seed (new replication) draws a different injection
  // stream from the same scenario.
  auto c = FaultSchedule::Compile(*spec, w, 43);
  ASSERT_TRUE(c.ok());
  bool differs = c->injected_queries().size() != a->injected_queries().size();
  for (size_t i = 0; !differs && i < a->injected_queries().size(); ++i) {
    differs = a->injected_queries()[i].arrival !=
              c->injected_queries()[i].arrival;
  }
  EXPECT_TRUE(differs);
}

// Load-step and retry-storm templates are read in one pass of the trace's
// cursor: a streamed workload compiles to the schedule of its materialized
// twin, and each injected query copies a trace query (a retry-storm clone
// with an eighth of its deadline).
TEST(FaultScheduleTest, StreamedWorkloadCompilesLikeItsMaterializedTwin) {
  QueryTraceParams qp;
  qp.num_items = 64;
  qp.duration = SecondsToSim(100.0);
  qp.seed = 7;
  auto materialized = GenerateQueryTrace(qp);
  auto streamed = MakeStreamingWorkload(qp);
  ASSERT_TRUE(materialized.ok() && streamed.ok());
  ASSERT_TRUE(streamed->queries.empty());

  for (const char* kind : {"load-step", "retry-storm"}) {
    SCOPED_TRACE(kind);
    auto spec = FaultScenarioSpec::Parse(
        std::string("fault0.kind = ") + kind +
        "\nfault0.start_s = 10\nfault0.end_s = 40\nfault0.rate_hz = 8\n"
        "fault1.kind = " + kind +
        "\nfault1.start_s = 30\nfault1.end_s = 60\nfault1.rate_hz = 5\n");
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto a = FaultSchedule::Compile(*spec, *materialized, 42);
    auto b = FaultSchedule::Compile(*spec, *streamed, 42);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_GT(a->injected_queries().size(), 100u);
    ASSERT_EQ(a->injected_queries().size(), b->injected_queries().size());
    const int64_t divisor = std::string(kind) == "retry-storm" ? 8 : 1;
    for (size_t i = 0; i < a->injected_queries().size(); ++i) {
      const QueryRequest& qa = a->injected_queries()[i];
      const QueryRequest& qb = b->injected_queries()[i];
      EXPECT_EQ(qa.id, kInvalidTxn);
      EXPECT_EQ(qb.id, kInvalidTxn);
      EXPECT_EQ(qa.arrival, qb.arrival) << i;
      EXPECT_EQ(qa.exec, qb.exec) << i;
      EXPECT_EQ(qa.relative_deadline, qb.relative_deadline) << i;
      EXPECT_EQ(qa.freshness_req, qb.freshness_req) << i;
      EXPECT_EQ(qa.items, qb.items) << i;
      EXPECT_EQ(qa.preference_class, qb.preference_class) << i;
      const bool cloned = std::any_of(
          materialized->queries.begin(), materialized->queries.end(),
          [&](const QueryRequest& t) {
            return t.items == qa.items && t.exec == qa.exec &&
                   std::max<SimDuration>(1, t.relative_deadline / divisor) ==
                       qa.relative_deadline;
          });
      EXPECT_TRUE(cloned) << i;
    }
  }
}

}  // namespace
}  // namespace unitdb
