// Closed-loop session layer: pure-hash determinism of the session/jitter
// draws, the per-request state machine (retry, abandon, patience, the
// kDropRetry defect hook), and the run-level conservation properties the
// differential oracle cross-checks — submitted requests equal successes
// plus abandons, and retries never exceed requests times the budget.

#include "unit/session/session.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "unit/faults/scenario.h"
#include "unit/faults/schedule.h"
#include "unit/obs/trace_check.h"
#include "unit/obs/trace_reader.h"
#include "unit/sim/experiment.h"

namespace unitdb {
namespace {

TEST(SessionHashTest, HomeSessionIsStableAndInRange) {
  for (TxnId id = 0; id < 500; ++id) {
    const int s = SessionOf(/*seed=*/7, id, /*sessions=*/8);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 8);
    EXPECT_EQ(s, SessionOf(7, id, 8));  // pure function of (seed, id)
  }
  // Different seeds shuffle the assignment (not a constant function).
  bool any_differs = false;
  for (TxnId id = 0; id < 64 && !any_differs; ++id) {
    any_differs = SessionOf(1, id, 8) != SessionOf(2, id, 8);
  }
  EXPECT_TRUE(any_differs);
}

TEST(SessionHashTest, JitterFractionIsDeterministicAndInUnitInterval) {
  for (int attempt = 1; attempt <= 5; ++attempt) {
    const double f = SessionJitterFraction(42, 3, 17, attempt);
    EXPECT_GE(f, 0.0);
    EXPECT_LT(f, 1.0);
    EXPECT_EQ(f, SessionJitterFraction(42, 3, 17, attempt));
  }
  EXPECT_NE(SessionJitterFraction(42, 3, 17, 1),
            SessionJitterFraction(42, 3, 17, 2));
}

TEST(SessionDelayTest, DelaysAreMonotoneAndPositivePerChain) {
  SessionParams p;
  p.think_time = MillisToSim(5.0);
  p.backoff_base = MillisToSim(2.0);
  p.backoff_cap = MillisToSim(50.0);
  p.jitter = 0.5;
  SimDuration prev = 0;
  for (int retries_done = 0; retries_done < 10; ++retries_done) {
    const SimDuration d = RetryDelay(p, /*session=*/1, /*trace_id=*/9,
                                     retries_done, prev);
    EXPECT_GE(d, 1);
    EXPECT_GE(d, prev);  // trace_check invariant 7's monotonicity rule
    prev = d;
  }
  // Deep chains are bounded by think + cap + full jitter amplitude.
  EXPECT_LE(prev, p.think_time + 2 * p.backoff_cap);
}

TEST(SessionDelayTest, DegenerateKnobsStayPositive) {
  SessionParams p;
  p.think_time = 0;
  p.backoff_base = 0;  // clamped to 1 tick internally
  p.backoff_cap = 0;
  p.jitter = -3.0;  // clamped to [0, 1]
  const SimDuration d = RetryDelay(p, 0, 0, 0, 0);
  EXPECT_GE(d, 1);
}

TEST(SessionPoolTest, SuccessEndsTheChain) {
  SessionParams p;
  p.sessions = 4;
  SessionPool pool(p);
  QueryRequest q;
  pool.OnSubmit(11, q);
  const SessionDecision d = pool.OnOutcome(11, Outcome::kSuccess);
  EXPECT_EQ(d.kind, SessionDecision::kDone);
  EXPECT_EQ(d.attempt, 1);
  // The chain is gone: further outcomes for the id are not session-managed.
  EXPECT_EQ(pool.OnOutcome(11, Outcome::kRejected).kind,
            SessionDecision::kNone);
}

TEST(SessionPoolTest, RetriesThenAbandonsAtBudget) {
  SessionParams p;
  p.sessions = 2;
  p.max_retries = 3;
  SessionPool pool(p);
  QueryRequest q;
  pool.OnSubmit(5, q);
  SimDuration prev = 0;
  for (int attempt = 1; attempt <= 3; ++attempt) {
    const SessionDecision d = pool.OnOutcome(5, Outcome::kDeadlineMiss);
    ASSERT_EQ(d.kind, SessionDecision::kRetry) << attempt;
    EXPECT_EQ(d.attempt, attempt);
    EXPECT_GE(d.delay, prev);
    prev = d.delay;
  }
  const SessionDecision give_up = pool.OnOutcome(5, Outcome::kRejected);
  EXPECT_EQ(give_up.kind, SessionDecision::kAbandon);
  EXPECT_EQ(give_up.attempt, 4);
}

TEST(SessionPoolTest, PatienceBudgetAbandonsEarly) {
  SessionParams p;
  p.sessions = 1;
  p.max_retries = 100;
  p.patience = MillisToSim(8.0);  // roughly one think+backoff delay
  SessionPool pool(p);
  QueryRequest q;
  pool.OnSubmit(1, q);
  int retries = 0;
  while (true) {
    const SessionDecision d = pool.OnOutcome(1, Outcome::kRejected);
    if (d.kind == SessionDecision::kAbandon) break;
    ASSERT_EQ(d.kind, SessionDecision::kRetry);
    ASSERT_LT(++retries, 100) << "patience never exhausted";
  }
  EXPECT_LT(retries, 3);  // the budget covers at most one ~7 ms delay
}

TEST(SessionPoolTest, DropRetryHookSilentlyDropsTheNthDecision) {
  SessionParams p;
  p.sessions = 1;
  p.drop_retry_at = 2;
  SessionPool pool(p);
  QueryRequest q;
  pool.OnSubmit(1, q);
  pool.OnSubmit(2, q);
  EXPECT_EQ(pool.OnOutcome(1, Outcome::kRejected).kind,
            SessionDecision::kRetry);
  // The second retry decision of the run vanishes: no retry, no abandon.
  EXPECT_EQ(pool.OnOutcome(2, Outcome::kRejected).kind,
            SessionDecision::kNone);
  // And its chain is gone for good.
  EXPECT_EQ(pool.OnOutcome(2, Outcome::kRejected).kind,
            SessionDecision::kNone);
}

TEST(SessionPoolTest, FaultInjectedQueriesAreNeverEligible) {
  SessionParams p;
  p.sessions = 4;
  SessionPool pool(p);
  EXPECT_FALSE(pool.Eligible(kInvalidTxn));
  EXPECT_TRUE(pool.Eligible(0));
  SessionPool off{SessionParams{}};
  EXPECT_FALSE(off.Eligible(0));
}

/// Conservation properties over a real engine run under storm pressure.
class SessionConservationTest : public ::testing::Test {
 protected:
  StatusOr<ExperimentResult> Run(const EngineParams& engine,
                                 const std::string& policy = "unit",
                                 const std::string& trace_path = "") {
    auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                  UpdateDistribution::kUniform,
                                  /*scale=*/0.05, /*seed=*/42);
    if (!w.ok()) return w.status();
    const double dur = SimToSeconds(w->duration);
    auto spec = FaultScenarioSpec::Parse(
        "fault0.kind = retry-storm\n"
        "fault0.start_s = " + std::to_string(0.4 * dur) + "\n"
        "fault0.end_s = " + std::to_string(0.7 * dur) + "\n"
        "fault0.rate_hz = 60\n");
    if (!spec.ok()) return spec.status();
    return RunExperiment(
        *w, {.policy = policy,
             .weights = {1.0, 0.5, 1.0, 0.5},
             .engine = engine,
             .scenario = *spec,
             .fault_seed = 42,
             .obs = {.trace_path = trace_path, .series = true}});
  }
};

TEST_F(SessionConservationTest, RequestsEqualSuccessesPlusAbandons) {
  EngineParams engine;
  engine.session.sessions = 16;
  engine.session.max_retries = 3;
  auto r = Run(engine);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const RunMetrics& m = r->metrics;
  EXPECT_GT(m.session_requests, 0);
  EXPECT_GT(m.session_retries, 0) << "storm produced no retries";
  EXPECT_EQ(m.session_requests, m.session_successes + m.session_abandons);
  EXPECT_LE(m.session_retries,
            m.session_requests *
                static_cast<int64_t>(engine.session.max_retries));
  // Every retry resubmits the request through the front door.
  EXPECT_EQ(m.counts.submitted, m.session_requests + m.session_retries +
                                    m.fault_injected_queries);
}

TEST_F(SessionConservationTest, ConservationHoldsWithSheddingAndPatience) {
  EngineParams engine;
  engine.session.sessions = 8;
  engine.session.max_retries = 4;
  engine.session.patience = SecondsToSim(0.5);
  engine.shed_watermark = 6;
  auto r = Run(engine);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const RunMetrics& m = r->metrics;
  EXPECT_GT(m.queries_shed, 0) << "watermark never crossed under the storm";
  EXPECT_EQ(m.session_requests, m.session_successes + m.session_abandons);
  EXPECT_LE(m.session_retries,
            m.session_requests *
                static_cast<int64_t>(engine.session.max_retries));
}

TEST_F(SessionConservationTest, TracePassesEveryInvariantIncludingSessions) {
  const std::string trace =
      ::testing::TempDir() + "/session_conservation.jsonl";
  EngineParams engine;
  engine.session.sessions = 8;
  engine.shed_watermark = 6;
  auto r = Run(engine, "unit", trace);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto events = ReadTraceFile(trace);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  const TraceCheckResult check = CheckTrace(*events);
  EXPECT_TRUE(check.ok()) << TraceCheckSummary(check);
  EXPECT_GT(check.session_retries, 0);
  EXPECT_GT(check.sheds, 0);
}

TEST_F(SessionConservationTest, SessionsOffIsBitIdenticalToPrePrEngine) {
  // sessions=0 and no watermark must take zero divergent branches: the
  // metrics equal a run with a default-constructed EngineParams, bitwise.
  EngineParams off;
  off.session.sessions = 0;
  off.shed_watermark = 0;
  for (const char* policy : {"unit", "imu", "odu", "qmf"}) {
    auto a = Run(EngineParams{}, policy);
    auto b = Run(off, policy);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->metrics.counts.submitted, b->metrics.counts.submitted);
    EXPECT_EQ(a->metrics.counts.success, b->metrics.counts.success);
    EXPECT_EQ(a->metrics.counts.rejected, b->metrics.counts.rejected);
    EXPECT_EQ(a->metrics.counts.dmf, b->metrics.counts.dmf);
    EXPECT_EQ(a->metrics.busy_s, b->metrics.busy_s);  // exact, not Near
    EXPECT_EQ(a->metrics.query_response_s.sum(),
              b->metrics.query_response_s.sum());
    EXPECT_EQ(a->usm, b->usm);
    EXPECT_EQ(a->metrics.session_requests, 0);
    EXPECT_EQ(a->metrics.queries_shed, 0);
  }
}

}  // namespace
}  // namespace unitdb
