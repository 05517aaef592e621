// Edge cases of the discrete-event engine: lock chains, blocking, boundary
// timing, degenerate workloads.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "testing/fake_policy.h"
#include "unit/model/diff.h"
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

TEST(EngineEdgeTest, DeadlineScheduledBeforeDispatchBeatsTheCompletion) {
  // Completion and deadline land on the same instant. The deadline was
  // scheduled at admission, before the dispatch that scheduled the
  // completion, so the firm deadline wins the tie: a DMF, deterministically.
  Workload w = Empty(1, 10.0);
  QueryRequest q = Query(0, 1.0, 100.0, 0.1, {0});
  w.queries.push_back(q);
  FakePolicy policy;
  Engine engine(w, &policy, {});
  RunMetrics m = engine.Run();
  EXPECT_EQ(m.counts.dmf + m.counts.success, 1);
  EXPECT_EQ(m.counts.dmf, 1);
}

// --- Tie order at one instant -------------------------------------------
//
// Engine keeps the staged trace arrival, the running transaction's
// completion and the queries' deadlines out of its timer heap and merges
// them in. At one instant the arrival comes first; the completion comes
// after the timers and deadlines scheduled before its dispatch and before
// those scheduled after it, and a deadline likewise by its query's
// admission. The tests below log what a scripted policy sees, in order, on
// both engines (the reference engine pushes every event into one list), and
// run the same workload through RunDiff.

using Log = std::vector<std::string>;

/// A query whose times are whole milliseconds, so that ties are exact.
QueryRequest QueryMs(TxnId id, int64_t arrival_ms, int64_t exec_ms,
                     int64_t deadline_ms, ItemId item) {
  QueryRequest q;
  q.id = id;
  q.arrival = MillisToSim(static_cast<double>(arrival_ms));
  q.exec = MillisToSim(static_cast<double>(exec_ms));
  q.relative_deadline = MillisToSim(static_cast<double>(deadline_ms));
  q.freshness_req = 0.0;
  q.items = {item};
  return q;
}

ItemUpdateSpec SourceMs(ItemId item, int64_t period_ms, int64_t exec_ms,
                        int64_t phase_ms) {
  ItemUpdateSpec s;
  s.item = item;
  s.ideal_period = MillisToSim(static_cast<double>(period_ms));
  s.update_exec = MillisToSim(static_cast<double>(exec_ms));
  s.phase = MillisToSim(static_cast<double>(phase_ms));
  return s;
}

/// Runs `w` on Engine and on ReferenceEngine under a policy that admits
/// every query and logs, at each step, "<ms> <what>": admissions and
/// resolutions (by trace id), source arrivals, update commits and control
/// ticks.
/// `on_source` runs after each source arrival is logged. Expects both logs
/// to equal `want` and the compared metrics to agree bit for bit. Then runs
/// `w` through RunDiff under IMU, which also admits every query.
void ExpectTieOrder(
    const Workload& w, const EngineParams& params, const Log& want,
    const std::function<void(EngineContext&, ItemId)>& on_source = {}) {
  RunMetrics metrics[2];
  for (const bool reference : {false, true}) {
    Log log;
    auto at = [&log](const EngineContext& e, const std::string& what) {
      log.push_back(std::to_string(e.now() / MillisToSim(1.0)) + " " + what);
    };
    FakePolicy policy;
    policy.admit = [&at](EngineContext& e, const Transaction& q) {
      at(e, "admit q" + std::to_string(q.trace_id()));
      return true;
    };
    policy.on_resolved = [&at](EngineContext& e, const Transaction& q,
                               Outcome o) {
      at(e, "resolve q" + std::to_string(q.trace_id()) + " " + OutcomeName(o));
    };
    policy.on_source_arrival = [&at, &on_source](EngineContext& e,
                                                 ItemId item) {
      at(e, "source " + std::to_string(item));
      if (on_source) on_source(e, item);
    };
    policy.on_update_commit = [&at](EngineContext& e, const Transaction& u) {
      at(e, "update " + std::to_string(u.update_item()));
    };
    policy.on_tick = [&at](EngineContext& e) { at(e, "tick"); };
    metrics[reference] = reference ? ReferenceEngine(w, &policy, params).Run()
                                   : Engine(w, &policy, params).Run();
    EXPECT_EQ(log, want) << "reference=" << reference;
  }
  DiffResult metric_diff;
  DiffMetrics(metrics[0], metrics[1], {}, &metric_diff);
  EXPECT_EQ(metric_diff.divergence_count, 0)
      << (metric_diff.divergences.empty() ? "" : metric_diff.divergences[0]);

  DiffCase c;
  c.workload = w;
  c.engine = params;
  c.policy = "imu";
  auto diff = RunDiff(c);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_TRUE(diff->equivalent)
      << (diff->divergences.empty() ? "" : diff->divergences[0]);
}

TEST(EngineEdgeTest, ArrivalAtTheCompletionInstantComesFirst) {
  // q0 runs 1000-1100 ms; q1 arrives at 1100 ms. Admission sees q0 still
  // unresolved, and q0 then commits at the same instant.
  Workload w = Empty(2, 5.0);
  w.queries = {QueryMs(0, 1000, 100, 1000, 0), QueryMs(1, 1100, 50, 1000, 1)};
  EngineParams params;
  params.control_period = 0;
  ExpectTieOrder(w, params,
                 {"1000 admit q0", "1100 admit q1", "1100 resolve q0 success",
                  "1150 resolve q1 success"});
}

TEST(EngineEdgeTest, ArrivalComesBeforeTimersAtItsInstant) {
  {
    SCOPED_TRACE("control tick");
    Workload w = Empty(1, 2.5);
    w.queries = {QueryMs(0, 1000, 50, 1000, 0)};
    ExpectTieOrder(w, {},
                   {"1000 admit q0", "1000 tick", "1050 resolve q0 success",
                    "2000 tick"});
  }
  {
    SCOPED_TRACE("update arrival");
    // The update outranks q0, so it preempts q0 right after admission.
    Workload w = Empty(2, 2.5);
    w.updates = {SourceMs(0, 2000, 10, 1000)};
    w.queries = {QueryMs(0, 1000, 50, 1000, 1)};
    EngineParams params;
    params.control_period = 0;
    ExpectTieOrder(w, params,
                   {"1000 admit q0", "1000 source 0", "1010 update 0",
                    "1060 resolve q0 success"});
  }
  {
    SCOPED_TRACE("another query's deadline");
    // Under FCFS q1 waits behind q0 until its deadline at 1000 ms, the
    // instant q2 arrives.
    Workload w = Empty(3, 5.0);
    w.queries = {QueryMs(0, 0, 2000, 5000, 0), QueryMs(1, 500, 100, 500, 1),
                 QueryMs(2, 1000, 100, 5000, 2)};
    EngineParams params;
    params.control_period = 0;
    params.discipline = QueueDiscipline::kFcfs;
    ExpectTieOrder(w, params,
                   {"0 admit q0", "500 admit q1", "1000 admit q2",
                    "1000 resolve q1 dmf", "2000 resolve q0 success",
                    "2100 resolve q2 success"});
  }
}

TEST(EngineEdgeTest, CompletionOrdersAgainstTimersByItsDispatch) {
  // Source 0 arrives every 100 ms from 0 ms; its first update runs 0-10 ms.
  // q0 reads item 1 and is dispatched on arrival at 30 ms.
  Workload w = Empty(2, 0.25);
  w.updates = {SourceMs(0, 100, 10, 0)};
  EngineParams params;
  params.control_period = 0;
  {
    SCOPED_TRACE("timer scheduled before the dispatch");
    // The 100 ms arrival was scheduled at 0 ms. It comes first and preempts
    // q0 with no work left; q0 commits once the update is done.
    w.queries = {QueryMs(0, 30, 70, 1000, 1)};
    ExpectTieOrder(w, params,
                   {"0 source 0", "10 update 0", "30 admit q0", "100 source 0",
                    "110 update 0", "110 resolve q0 success", "200 source 0",
                    "210 update 0"});
  }
  {
    SCOPED_TRACE("timer scheduled after the dispatch");
    // q0 runs 30-200 ms. The policy drops the 100 ms delivery by
    // stretching the period, so the 200 ms arrival is scheduled at 100 ms,
    // after the dispatch: q0 commits first, and the update finds it
    // committed, not preempted.
    w.queries = {QueryMs(0, 30, 170, 1000, 1)};
    auto stretch_at_100ms = [](EngineContext& e, ItemId item) {
      const bool drop = e.now() == MillisToSim(100.0);
      e.db().SetCurrentPeriod(item, MillisToSim(drop ? 1000.0 : 100.0));
    };
    ExpectTieOrder(w, params,
                   {"0 source 0", "10 update 0", "30 admit q0", "100 source 0",
                    "200 resolve q0 success", "200 source 0", "210 update 0"},
                   stretch_at_100ms);
  }
}

TEST(EngineEdgeTest, DeadlineOrdersAgainstTimersByItsAdmission) {
  // Under FCFS q1 waits behind q0, which runs 0-3000 ms, until its deadline
  // at 2000 ms, the instant of the second control tick. That tick is pushed
  // when the first fires, at 1000 ms.
  EngineParams params;
  params.discipline = QueueDiscipline::kFcfs;
  {
    SCOPED_TRACE("query admitted before the timer was pushed");
    // q1 is admitted at 500 ms: its deadline comes first.
    Workload w = Empty(2, 3.5);
    w.queries = {QueryMs(0, 0, 3000, 5000, 0), QueryMs(1, 500, 100, 1500, 1)};
    ExpectTieOrder(w, params,
                   {"0 admit q0", "500 admit q1", "1000 tick",
                    "2000 resolve q1 dmf", "2000 tick",
                    "3000 resolve q0 success", "3000 tick"});
  }
  {
    SCOPED_TRACE("query admitted after the timer was pushed");
    // q1 is admitted at 1500 ms: the tick comes first.
    Workload w = Empty(2, 3.5);
    w.queries = {QueryMs(0, 0, 3000, 5000, 0), QueryMs(1, 1500, 100, 500, 1)};
    ExpectTieOrder(w, params,
                   {"0 admit q0", "1000 tick", "1500 admit q1", "2000 tick",
                    "2000 resolve q1 dmf", "3000 resolve q0 success",
                    "3000 tick"});
  }
}

TEST(EngineEdgeTest, DeadlineAdmittedAfterTheDispatchLosesToTheCompletion) {
  // Under FCFS q0 runs 0-1000 ms. q1 arrives at 200 ms, after q0's
  // dispatch, and is due at 1000 ms: q0 commits first, then q1, dispatched
  // at that instant, misses its deadline.
  Workload w = Empty(2, 5.0);
  w.queries = {QueryMs(0, 0, 1000, 5000, 0), QueryMs(1, 200, 100, 800, 1)};
  EngineParams params;
  params.control_period = 0;
  params.discipline = QueueDiscipline::kFcfs;
  ExpectTieOrder(w, params,
                 {"0 admit q0", "200 admit q1", "1000 resolve q0 success",
                  "1000 resolve q1 dmf"});
}

TEST(EngineEdgeTest, RunningAndQueuedQueriesDueTogetherMissInAdmissionOrder) {
  // q0 runs from 0 ms and q1, admitted at 200 ms, queues behind it; both
  // are due at 1000 ms. Both miss there, q0 first: its deadline holds the
  // earlier admission's sequence. q1 is dispatched at that instant and
  // misses as the running query.
  Workload w = Empty(2, 5.0);
  w.queries = {QueryMs(0, 0, 2000, 1000, 0), QueryMs(1, 200, 100, 800, 1)};
  EngineParams params;
  params.control_period = 0;
  ExpectTieOrder(w, params,
                 {"0 admit q0", "200 admit q1", "1000 resolve q0 dmf",
                  "1000 resolve q1 dmf"});
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

// A query resolved before its deadline takes the deadline with it: a commit
// (success or stale) or a shed leaves it unreached. Without the cache every
// admitted query has a live deadline, so the unreached ones number exactly
// the commits plus the sheds, and no event is ever dead.
TEST(EngineEdgeTest, ShedAndCommitDeadlinesAreErased) {
  Workload w = Empty(8, 30.0);
  for (int i = 0; i < 400; ++i) {
    // Every tenth query is due before it can run: a deadline miss, whose
    // deadline is reached.
    const double deadline_s = i % 10 == 0 ? 0.03 : 1.0 + (i % 3);
    w.queries.push_back(Query(i, 0.01 * i, 40.0, deadline_s, {i % 8}));
  }
  w.updates = {Source(0, 0.5, 20.0), Source(3, 0.7, 20.0)};
  FakePolicy policy;
  policy.periodic_updates = false;  // items 0 and 3 go stale
  EngineParams params;
  params.shed_watermark = 4;
  Engine engine(w, &policy, params);
  RunMetrics m = engine.Run();
  EXPECT_GT(m.queries_shed, 0);
  EXPECT_GT(m.counts.success, 0);
  EXPECT_GT(m.counts.dsf, 0);
  EXPECT_GT(m.counts.dmf, 0);
  EXPECT_EQ(m.events_cancelled,
            m.counts.success + m.counts.dsf + m.queries_shed);
  EXPECT_EQ(m.event_compactions, 0);
  EXPECT_EQ(m.events_compacted, 0);
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

// Update specs the database refuses would leave update chains running for
// items it never set up (past the end of the item array, for item 4 of 4).
// Server::Create and RunRecorded return the status; an engine built
// directly aborts in Run in every build type.
TEST(EngineEdgeDeathTest, RefusedUpdateSpecsAbortInEveryBuild) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Workload duplicate = Empty(4, 10.0);
  duplicate.updates = {Source(1, 1.0, 10.0), Source(1, 2.0, 10.0),
                       Source(2, 1.0, 10.0)};
  Workload past_end = Empty(4, 10.0);
  past_end.updates = {Source(1, 1.0, 10.0), Source(4, 1.0, 10.0)};
  FakePolicy policy;
  EXPECT_EQ(Engine(duplicate, &policy, {}).workload_status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(ReferenceEngine(past_end, &policy, {}).workload_status().code(),
            StatusCode::kOutOfRange);
  for (const bool reference : {false, true}) {
    auto run = [reference, &policy](const Workload& w) {
      if (reference) {
        ReferenceEngine(w, &policy, {}).Run();
      } else {
        Engine(w, &policy, {}).Run();
      }
    };
    EXPECT_DEATH(run(duplicate),
                 "bad workload update specs: ALREADY_EXISTS: duplicate "
                 "update spec for item 1");
    EXPECT_DEATH(run(past_end),
                 "bad workload update specs: OUT_OF_RANGE: item id 4 "
                 "outside \\[0, 4\\)");
  }
}

}  // namespace
}  // namespace unitdb
