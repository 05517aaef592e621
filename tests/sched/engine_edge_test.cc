// Edge cases of the discrete-event engine: lock chains, blocking, boundary
// timing, degenerate workloads.

#include <gtest/gtest.h>

#include "testing/fake_policy.h"
#include "unit/model/reference_engine.h"
#include "unit/sched/engine.h"
#include "unit/sim/server.h"
#include "unit/workload/spec.h"

namespace unitdb {
namespace {

using testing_support::FakePolicy;

QueryRequest Query(TxnId id, double arrival_s, double exec_ms,
                   double deadline_s, std::vector<ItemId> items) {
  QueryRequest q;
  q.id = id;
  q.arrival = SecondsToSim(arrival_s);
  q.exec = MillisToSim(exec_ms);
  q.relative_deadline = SecondsToSim(deadline_s);
  q.freshness_req = 0.9;
  q.items = std::move(items);
  return q;
}

ItemUpdateSpec Source(ItemId item, double period_s, double exec_ms,
                      double phase_s = 0.0) {
  ItemUpdateSpec s;
  s.item = item;
  s.ideal_period = SecondsToSim(period_s);
  s.update_exec = MillisToSim(exec_ms);
  s.phase = SecondsToSim(phase_s);
  return s;
}

Workload Empty(int num_items = 4, double duration_s = 5.0) {
  Workload w;
  w.num_items = num_items;
  w.duration = SecondsToSim(duration_s);
  return w;
}

TEST(EngineEdgeTest, EmptyWorkloadTerminates) {
  Workload w = Empty();
  FakePolicy policy;
  Engine engine(w, &policy, {});
  RunMetrics m = engine.Run();
  EXPECT_EQ(m.counts.submitted, 0);
  EXPECT_DOUBLE_EQ(m.busy_s, 0.0);
  EXPECT_GT(policy.control_ticks, 0);  // control loop still runs
}

TEST(EngineEdgeTest, ZeroControlPeriodDisablesTicks) {
  Workload w = Empty();
  w.queries.push_back(Query(0, 1.0, 10.0, 1.0, {0}));
  FakePolicy policy;
  EngineParams params;
  params.control_period = 0;
  Engine engine(w, &policy, params);
  engine.Run();
  EXPECT_EQ(policy.control_ticks, 0);
}

TEST(EngineEdgeTest, UpdateOnlyWorkloadAppliesEverything) {
  Workload w = Empty(2, 10.0);
  w.updates = {Source(0, 2.0, 20.0), Source(1, 3.0, 30.0, 1.0)};
  FakePolicy policy;
  Engine engine(w, &policy, {});
  RunMetrics m = engine.Run();
  EXPECT_EQ(m.update_commits, w.TotalSourceUpdates());
  EXPECT_EQ(m.counts.submitted, 0);
}

TEST(EngineEdgeTest, QueryBlocksBehindUpdateExclusiveLock) {
  // A long update holds the X lock on item 0 from t=1.0 to t=3.0; a query
  // reading item 0 arrives at t=1.5. It cannot abort the higher-priority
  // holder: it blocks and commits right after the update.
  Workload w = Empty(1, 20.0);
  w.queries.push_back(Query(0, 1.5, 100.0, 10.0, {0}));
  w.updates = {Source(0, 100.0, 2000.0, 1.0)};
  FakePolicy policy;
  Engine engine(w, &policy, {});
  RunMetrics m = engine.Run();
  EXPECT_EQ(m.counts.success, 1);
  // Query committed at ~3.1s: waited for the update (until 3.0) then ran.
  EXPECT_NEAR(m.query_response_s.mean(), (3.0 - 1.5) + 0.1, 1e-6);
  EXPECT_EQ(m.lock_restarts, 0);
}

TEST(EngineEdgeTest, UpdatesOnSameItemSerialize) {
  // Two sources... a single item receives periodic updates faster than it
  // can apply them; X locks force serialization, never deadlock.
  Workload w = Empty(1, 4.0);
  w.updates = {Source(0, 0.5, 600.0)};  // 600ms work every 500ms
  FakePolicy policy;
  Engine engine(w, &policy, {});
  RunMetrics m = engine.Run();
  // All generated update txns eventually commit (drain past horizon).
  EXPECT_EQ(m.update_commits, m.updates_generated);
  EXPECT_GT(m.update_commits, 4);
}

TEST(EngineEdgeTest, RestartedQueryCanStillSucceed) {
  // Query (1s of work, deadline 10s) reads two items whose updates land at
  // t=0.1 and t=0.9: two 2PL-HP restarts, then a clean run to commit at
  // ~1.95s — well within the deadline.
  Workload w = Empty(2, 20.0);
  w.queries.push_back(Query(0, 0.0, 1000.0, 10.0, {0, 1}));
  w.updates = {Source(0, 100.0, 50.0, 0.1), Source(1, 100.0, 50.0, 0.9)};
  FakePolicy policy;
  Engine engine(w, &policy, {});
  RunMetrics m = engine.Run();
  EXPECT_EQ(m.counts.success, 1);
  EXPECT_EQ(m.lock_restarts, 2);
  EXPECT_NEAR(m.query_response_s.mean(), 1.95, 1e-6);
}

TEST(EngineEdgeTest, QueryReadingManyItemsLocksAtomically) {
  // Query reads 4 items; update streams touch two of them. The query's
  // all-or-nothing S acquisition plus 2PL-HP restarts must never deadlock.
  Workload w = Empty(4, 30.0);
  w.queries.push_back(Query(0, 0.0, 800.0, 25.0, {0, 1, 2, 3}));
  w.updates = {Source(0, 0.9, 100.0, 0.2), Source(2, 1.1, 100.0, 0.5)};
  FakePolicy policy;
  Engine engine(w, &policy, {});
  RunMetrics m = engine.Run();
  EXPECT_EQ(m.counts.resolved(), 1);
  EXPECT_EQ(m.counts.success + m.counts.dmf + m.counts.dsf, 1);
}

TEST(EngineEdgeTest, DeadlineExactlyAtCompletionCommitsFirst) {
  // Completion and deadline land on the same instant; the completion event
  // was scheduled first (FIFO tie-break), so the query succeeds.
  Workload w = Empty(1, 10.0);
  QueryRequest q = Query(0, 1.0, 100.0, 0.1, {0});
  w.queries.push_back(q);
  FakePolicy policy;
  Engine engine(w, &policy, {});
  RunMetrics m = engine.Run();
  EXPECT_EQ(m.counts.dmf + m.counts.success, 1);
  // Deadline event (scheduled at admission) precedes the completion event
  // (scheduled at dispatch) in the queue for equal timestamps, so the firm
  // deadline wins the tie: this is a DMF, deterministically.
  EXPECT_EQ(m.counts.dmf, 1);
}

TEST(EngineEdgeTest, ArrivalAtHorizonBoundaryIsDropped) {
  // An update phase beyond the duration never generates or applies.
  Workload w = Empty(1, 5.0);
  w.updates = {Source(0, 10.0, 50.0, 7.0)};  // phase after the horizon
  FakePolicy policy;
  Engine engine(w, &policy, {});
  RunMetrics m = engine.Run();
  EXPECT_EQ(m.update_commits, 0);
  EXPECT_EQ(w.TotalSourceUpdates(), 0);
}

TEST(EngineEdgeTest, DuplicateItemsInReadSetAreHarmless) {
  Workload w = Empty(2, 10.0);
  w.queries.push_back(Query(0, 1.0, 50.0, 5.0, {1, 1, 1}));
  FakePolicy policy;
  Engine engine(w, &policy, {});
  RunMetrics m = engine.Run();
  EXPECT_EQ(m.counts.success, 1);
  // Bookkeeping counts each listed access.
  EXPECT_EQ(m.per_item_accesses[1], 3);
}

TEST(EngineEdgeTest, OnDemandUpdateForItemWithoutSourceStillRuns) {
  // ODU-style refresh on a source-less item: the item is always fresh, but
  // issuing an update for it must not crash or wedge the engine... it has
  // no update_exec, so the engine cannot build a transaction for it unless
  // the database carries a spec. Give it one with a far-future phase.
  Workload w = Empty(1, 10.0);
  w.updates = {Source(0, 8.0, 40.0, 6.0)};
  w.queries.push_back(Query(0, 1.0, 50.0, 5.0, {0}));
  FakePolicy policy;
  policy.before_dispatch = [](EngineContext& e, Transaction& q) {
    if (q.refresh_rounds() > 0) return true;
    q.IncrementRefreshRounds();
    e.IssueOnDemandUpdate(0);
    return false;
  };
  Engine engine(w, &policy, {});
  RunMetrics m = engine.Run();
  EXPECT_EQ(m.counts.success, 1);
  EXPECT_EQ(m.on_demand_updates, 1);
}

TEST(EngineEdgeTest, RefreshIssuedByAControlTickRunsOnAnIdleCpu) {
  // No queries and no periodic arrivals: after the first control tick the
  // only events left are later ticks. A refresh the policy issues from that
  // tick must still start at once, on both engines.
  Workload w = Empty(1, 5.0);
  w.updates = {Source(0, 100.0, 10.0)};
  for (const bool reference : {false, true}) {
    FakePolicy policy;
    policy.periodic_updates = false;
    policy.on_tick = [](EngineContext& e) {
      if (e.now() == SecondsToSim(1.0)) e.IssueOnDemandUpdate(0);
    };
    SimTime committed_at = -1;
    policy.on_update_commit = [&committed_at](EngineContext& e,
                                              const Transaction&) {
      committed_at = e.now();
    };
    const RunMetrics m = reference ? ReferenceEngine(w, &policy, {}).Run()
                                   : Engine(w, &policy, {}).Run();
    EXPECT_EQ(m.update_commits, 1) << "reference=" << reference;
    EXPECT_EQ(committed_at, SecondsToSim(1.0) + MillisToSim(10.0))
        << "reference=" << reference;
  }
}

TEST(EngineEdgeTest, ManySimultaneousArrivalsResolveDeterministically) {
  Workload w = Empty(8, 30.0);
  for (int i = 0; i < 50; ++i) {
    w.queries.push_back(Query(i, 1.0, 200.0, 3.0 + (i % 5), {i % 8}));
  }
  auto run = [&w] {
    FakePolicy policy;
    Engine engine(w, &policy, {});
    return engine.Run();
  };
  RunMetrics a = run();
  RunMetrics b = run();
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.counts.resolved(), 50);
  EXPECT_GT(a.counts.success, 0);
  EXPECT_GT(a.counts.dmf, 0);  // 5s of work vs <= 8s deadlines: some miss
}

TEST(EngineEdgeTest, PolicyPostponingWithoutWorkIsCaughtNotLooping) {
  // A buggy policy that postpones without enqueueing higher-priority work:
  // the engine logs an error and runs the query anyway (no infinite loop).
  Workload w = Empty(1, 10.0);
  w.queries.push_back(Query(0, 1.0, 50.0, 5.0, {0}));
  FakePolicy policy;
  policy.before_dispatch = [](EngineContext&, Transaction&) { return false; };
  Engine engine(w, &policy, {});
  RunMetrics m = engine.Run();
  EXPECT_EQ(m.counts.resolved(), 1);
}

TEST(EngineEdgeTest, BusyAccountingMatchesCommittedWork) {
  // No contention, no aborts: busy time == sum of all demands.
  Workload w = Empty(4, 60.0);
  double expected_s = 0.0;
  for (int i = 0; i < 10; ++i) {
    w.queries.push_back(Query(i, 2.0 * i, 100.0 + i, 20.0, {i % 4}));
    expected_s += (100.0 + i) / 1000.0;
  }
  w.updates = {Source(0, 10.0, 50.0, 0.5)};
  expected_s += 6 * 0.050;  // arrivals at 0.5, 10.5, ..., 50.5
  FakePolicy policy;
  Engine engine(w, &policy, {});
  RunMetrics m = engine.Run();
  EXPECT_EQ(m.counts.success, 10);
  EXPECT_NEAR(m.busy_s, expected_s, 1e-6);
}

// A trace whose arrivals go backwards would step the clock back. The engine
// aborts on one in every build type, naming the query and both times, and
// checks the first arrival against time 0.
TEST(EngineEdgeDeathTest, BackwardArrivalAbortsInEveryBuild) {
  // Re-executes the test binary for the child instead of forking a process
  // that may hold threads (sanitizer builds).
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto run = [](const Workload& w) {
    auto server = Server::Create(w, {});
    if (server.ok()) (*server)->Run();
  };
  Workload w = Empty(4, 10.0);
  const double arrivals_s[] = {0.0, 2.0, 1.0, 3.0};
  for (int i = 0; i < 4; ++i) {
    w.queries.push_back(Query(i, arrivals_s[i], 10.0, 5.0, {i}));
  }
  EXPECT_DEATH(run(w), "query 2 arrives at 1 s, before 2 s");

  Workload early = Empty(4, 10.0);
  early.queries.push_back(Query(0, -1.0, 10.0, 5.0, {0}));
  EXPECT_DEATH(run(early), "query 0 arrives at -1 s, before 0 s");
}

}  // namespace
}  // namespace unitdb
