// Engine-side fault semantics on a hand-built workload: outages suppress
// deliveries, bursts force ingestion, load steps inject admissible queries,
// scalar faults apply only inside their windows — and an attached-but-empty
// schedule is a strict behavioral no-op.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "testing/fake_policy.h"
#include "unit/faults/scenario.h"
#include "unit/faults/schedule.h"
#include "unit/sched/engine.h"
#include "unit/sim/experiment.h"
#include "unit/workload/spec.h"

namespace unitdb {
namespace {

using testing_support::FakePolicy;

/// 2 items, source on item 0 (1 s period), a query every 0.5 s, 60 s run.
Workload TinyWorkload() {
  Workload w;
  w.num_items = 2;
  w.duration = SecondsToSim(60.0);
  for (int i = 0; i < 120; ++i) {
    QueryRequest q;
    q.id = i;
    q.arrival = SecondsToSim(0.5 * i);
    q.exec = MillisToSim(20);
    q.relative_deadline = SecondsToSim(1.0);
    q.freshness_req = 0.6;
    q.items = {0};
    w.queries.push_back(q);
  }
  ItemUpdateSpec s;
  s.item = 0;
  s.ideal_period = SecondsToSim(1.0);
  s.update_exec = MillisToSim(5);
  s.phase = MillisToSim(100);
  w.updates.push_back(s);
  return w;
}

StatusOr<FaultSchedule> Compiled(const std::string& text, const Workload& w) {
  auto spec = FaultScenarioSpec::Parse(text);
  if (!spec.ok()) return spec.status();
  return FaultSchedule::Compile(*spec, w, 42);
}

RunMetrics RunWith(const Workload& w, const FaultSchedule* faults,
                   FakePolicy* policy = nullptr) {
  FakePolicy fallback;
  EngineParams params;
  params.faults = faults;
  Engine engine(w, policy != nullptr ? policy : &fallback, params);
  return engine.Run();
}

TEST(FaultEngineTest, EmptyScheduleIsStrictNoOp) {
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 0.02, 42);
  ASSERT_TRUE(w.ok());
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  for (const char* policy : {"unit", "qmf", "imu"}) {
    auto plain = RunExperiment(*w, {.policy = policy, .weights = weights});
    auto faulted = RunExperiment(*w, {.policy = policy,
                                      .weights = weights,
                                      .scenario = FaultScenarioSpec{},
                                      .fault_seed = 42});
    ASSERT_TRUE(plain.ok() && faulted.ok());
    SCOPED_TRACE(policy);
    EXPECT_EQ(plain->usm, faulted->usm);  // bitwise
    EXPECT_EQ(plain->metrics.counts, faulted->metrics.counts);
    EXPECT_EQ(plain->metrics.events_processed,
              faulted->metrics.events_processed);
    EXPECT_EQ(plain->metrics.events_cancelled,
              faulted->metrics.events_cancelled);
    EXPECT_EQ(plain->metrics.busy_s, faulted->metrics.busy_s);
    EXPECT_EQ(plain->metrics.preemptions, faulted->metrics.preemptions);
    EXPECT_EQ(plain->metrics.update_commits, faulted->metrics.update_commits);
    EXPECT_EQ(faulted->metrics.fault_edges, 0);
    EXPECT_EQ(faulted->metrics.fault_injected_queries, 0);
    EXPECT_EQ(faulted->metrics.fault_injected_updates, 0);
    EXPECT_EQ(faulted->metrics.fault_suppressed_updates, 0);
    EXPECT_FALSE(faulted->disturbance.valid);
  }
}

TEST(FaultEngineTest, OutageSuppressesDeliveries) {
  const Workload w = TinyWorkload();
  auto outage = Compiled(
      "fault0.kind = update-outage\nfault0.start_s = 20\n"
      "fault0.end_s = 40\nfault0.items = 0\n", w);
  ASSERT_TRUE(outage.ok()) << outage.status().ToString();

  const RunMetrics base = RunWith(w, nullptr);
  const RunMetrics faulted = RunWith(w, &*outage);
  EXPECT_EQ(faulted.fault_edges, 2);
  // One delivery per second for the 20 s window never reaches the server.
  EXPECT_GE(faulted.fault_suppressed_updates, 18);
  EXPECT_LE(faulted.fault_suppressed_updates, 21);
  EXPECT_LT(faulted.update_commits, base.update_commits);
  // The arrival chain keeps ticking through the window, so deliveries (and
  // update transactions) resume after it closes.
  EXPECT_GT(faulted.update_commits,
            base.update_commits - faulted.fault_suppressed_updates - 1);
  // Staleness rises while installed values decay behind the live source.
  EXPECT_GE(faulted.counts.dsf, base.counts.dsf);
}

TEST(FaultEngineTest, BurstForcesIngestion) {
  const Workload w = TinyWorkload();
  auto burst = Compiled(
      "fault0.kind = update-burst\nfault0.start_s = 20\n"
      "fault0.end_s = 30\nfault0.items = 0\nfault0.rate_hz = 5\n", w);
  ASSERT_TRUE(burst.ok()) << burst.status().ToString();
  ASSERT_FALSE(burst->injected_updates().empty());

  const RunMetrics base = RunWith(w, nullptr);
  const RunMetrics faulted = RunWith(w, &*burst);
  // Every pre-materialized delivery bypasses the due-check and becomes an
  // update transaction. Each forced pull also refreshes the item's
  // last-pull time, so some periodic deliveries inside the window stop
  // being due — total generation rises, but by less than the burst size.
  EXPECT_EQ(faulted.fault_injected_updates,
            static_cast<int64_t>(burst->injected_updates().size()));
  EXPECT_GT(faulted.updates_generated, base.updates_generated);
  EXPECT_LE(faulted.updates_generated,
            base.updates_generated + faulted.fault_injected_updates);
  EXPECT_EQ(faulted.update_commits, faulted.updates_generated);
}

TEST(FaultEngineTest, ConcurrentOutageSwallowsBurstDeliveries) {
  const Workload w = TinyWorkload();
  auto both = Compiled(
      "fault0.kind = update-outage\nfault0.start_s = 15\n"
      "fault0.end_s = 35\nfault0.items = 0\n"
      "fault1.kind = update-burst\nfault1.start_s = 20\n"
      "fault1.end_s = 30\nfault1.items = 0\nfault1.rate_hz = 5\n", w);
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  const RunMetrics m = RunWith(w, &*both);
  EXPECT_EQ(m.fault_injected_updates, 0);
  // Periodic (~20) plus forced (~50) deliveries all hit the outage.
  EXPECT_GE(m.fault_suppressed_updates,
            static_cast<int64_t>(both->injected_updates().size()));
}

TEST(FaultEngineTest, LoadStepInjectsAdmissibleQueries) {
  const Workload w = TinyWorkload();
  auto step = Compiled(
      "fault0.kind = load-step\nfault0.start_s = 20\n"
      "fault0.end_s = 40\nfault0.rate_hz = 10\n", w);
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  ASSERT_FALSE(step->injected_queries().empty());

  FakePolicy policy;
  const RunMetrics m = RunWith(w, &*step, &policy);
  EXPECT_EQ(m.fault_injected_queries,
            static_cast<int64_t>(step->injected_queries().size()));
  // Conservation: every injected query is submitted and resolved like a
  // workload query.
  EXPECT_EQ(m.counts.submitted,
            static_cast<int64_t>(w.queries.size()) + m.fault_injected_queries);
  EXPECT_EQ(m.counts.resolved(), m.counts.submitted);
  EXPECT_EQ(static_cast<int64_t>(policy.resolved.size()), m.counts.submitted);
}

TEST(FaultEngineTest, SlowdownScalesServiceDemandInsideWindow) {
  const Workload w = TinyWorkload();
  auto slow = Compiled(
      "fault0.kind = service-slowdown\nfault0.start_s = 20\n"
      "fault0.end_s = 40\nfault0.factor = 3\n", w);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  const RunMetrics base = RunWith(w, nullptr);
  const RunMetrics faulted = RunWith(w, &*slow);
  EXPECT_GT(faulted.busy_s, base.busy_s);
}

TEST(FaultEngineTest, FreshnessShiftAppliesOnlyInsideWindow) {
  const Workload w = TinyWorkload();
  auto shift = Compiled(
      "fault0.kind = freshness-shift\nfault0.start_s = 20\n"
      "fault0.end_s = 40\nfault0.delta = 0.3\n", w);
  ASSERT_TRUE(shift.ok()) << shift.status().ToString();

  std::map<SimTime, double> req_at_arrival;
  FakePolicy policy;
  policy.admit = [&](EngineContext& engine, const Transaction& q) {
    req_at_arrival[engine.now()] = q.freshness_req();
    return true;
  };
  RunWith(w, &*shift, &policy);
  ASSERT_FALSE(req_at_arrival.empty());
  // A query arriving at exactly the window edge was pushed before the fault
  // edge, so the FIFO tie-break admits it under the *old* regime: the shift
  // covers (start, end] for same-instant arrivals.
  int inside = 0;
  for (const auto& [t, req] : req_at_arrival) {
    if (t > SecondsToSim(20.0) && t <= SecondsToSim(40.0)) {
      EXPECT_DOUBLE_EQ(req, 0.9) << "t=" << t;  // 0.6 + 0.3
      ++inside;
    } else {
      EXPECT_DOUBLE_EQ(req, 0.6) << "t=" << t;
    }
  }
  EXPECT_GT(inside, 0);
}

TEST(FaultEngineTest, FreshnessShiftClampsToOne) {
  const Workload w = TinyWorkload();  // base requirement 0.6
  auto shift = Compiled(
      "fault0.kind = freshness-shift\nfault0.start_s = 20\n"
      "fault0.end_s = 40\nfault0.delta = 0.7\n", w);
  ASSERT_TRUE(shift.ok());
  double max_req = 0.0;
  FakePolicy policy;
  policy.admit = [&](EngineContext&, const Transaction& q) {
    max_req = std::max(max_req, q.freshness_req());
    return true;
  };
  RunWith(w, &*shift, &policy);
  EXPECT_DOUBLE_EQ(max_req, 1.0);
}

}  // namespace
}  // namespace unitdb
