#include "unit/core/admission.h"

#include <gtest/gtest.h>

#include <optional>

#include "testing/fake_policy.h"
#include "unit/model/reference_engine.h"
#include "unit/sched/engine.h"
#include "unit/workload/spec.h"

namespace unitdb {
namespace {

using testing_support::FakePolicy;

QueryRequest Query(TxnId id, double arrival_s, double exec_ms,
                   double deadline_s, std::vector<ItemId> items = {0}) {
  QueryRequest q;
  q.id = id;
  q.arrival = SecondsToSim(arrival_s);
  q.exec = MillisToSim(exec_ms);
  q.relative_deadline = SecondsToSim(deadline_s);
  q.freshness_req = 0.9;
  q.items = std::move(items);
  return q;
}

Workload ThreeQueryWorkload(double candidate_deadline_s,
                            double queued_deadline_s = 10.0,
                            double queued_exec_ms = 100.0,
                            double candidate_exec_ms = 100.0) {
  Workload w;
  w.num_items = 4;
  w.duration = SecondsToSim(30.0);
  // q0 occupies the CPU for 1s; its deadline (0.9s, the earliest in play)
  // keeps it highest-priority so no later arrival preempts it. q1 waits in
  // the ready queue; q2 (the candidate) arrives at t=0.2 with 0.8s of q0
  // still running.
  w.queries.push_back(Query(0, 0.0, 1000.0, 0.9, {0}));
  w.queries.push_back(Query(1, 0.1, queued_exec_ms, queued_deadline_s, {1}));
  w.queries.push_back(Query(2, 0.2, candidate_exec_ms, candidate_deadline_s, {2}));
  return w;
}

/// Runs the workload, applying `controller` only to the third query, and
/// returns that admission decision.
bool DecideForCandidate(const Workload& w, AdmissionController& controller) {
  FakePolicy policy;
  std::optional<bool> decision;
  int seen = 0;
  policy.admit = [&](EngineContext& engine, const Transaction& q) {
    if (++seen < 3) return true;
    decision = controller.Admit(engine, q);
    return *decision;
  };
  Engine engine(w, &policy, {});
  engine.Run();
  EXPECT_TRUE(decision.has_value());
  return decision.value_or(false);
}

TEST(AdmissionTest, DeadlineCheckRejectsInfeasibleQuery) {
  // EST = 0.8s of q0; candidate needs 0.1s but has only 0.5s to live.
  Workload w = ThreeQueryWorkload(/*candidate_deadline_s=*/0.5);
  AdmissionController ac({}, UsmWeights{});
  EXPECT_FALSE(DecideForCandidate(w, ac));
  EXPECT_EQ(ac.rejected_by_deadline(), 1);
  EXPECT_EQ(ac.admitted(), 0);
}

TEST(AdmissionTest, DeadlineCheckAdmitsFeasibleQuery) {
  Workload w = ThreeQueryWorkload(/*candidate_deadline_s=*/2.0);
  AdmissionController ac({}, UsmWeights{});
  EXPECT_TRUE(DecideForCandidate(w, ac));
  EXPECT_EQ(ac.admitted(), 1);
}

TEST(AdmissionTest, CFlexScalesTheDeadlineCheck) {
  // Feasible at C_flex=1 (0.8 + 0.1 < 1.0) but not at C_flex=2
  // (1.6 + 0.1 >= 1.0).
  Workload w = ThreeQueryWorkload(/*candidate_deadline_s=*/1.0);
  AdmissionParams params;
  AdmissionController loose(params, UsmWeights{});
  EXPECT_TRUE(DecideForCandidate(w, loose));

  params.initial_c_flex = 2.0;
  AdmissionController tight(params, UsmWeights{});
  EXPECT_FALSE(DecideForCandidate(w, tight));
}

TEST(AdmissionTest, UsmCheckRejectsWhenEndangeringCostsMore) {
  // q1: exec 0.5s, absolute deadline 1.65s; finishes at 1.5s without the
  // candidate but at 1.7s with it -> endangered. C_fm(1.0) > C_r(0.5):
  // reject the candidate.
  Workload w = ThreeQueryWorkload(/*candidate_deadline_s=*/1.1,
                                  /*queued_deadline_s=*/1.55,
                                  /*queued_exec_ms=*/500.0,
                                  /*candidate_exec_ms=*/200.0);
  UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  AdmissionController ac({}, weights);
  EXPECT_FALSE(DecideForCandidate(w, ac));
  EXPECT_EQ(ac.rejected_by_usm(), 1);
}

TEST(AdmissionTest, UsmCheckAdmitsWhenRejectionCostsMore) {
  Workload w = ThreeQueryWorkload(1.1, 1.55, 500.0, 200.0);
  UsmWeights weights{1.0, 2.0, 1.0, 0.5};  // rejecting is worse than one DMF
  AdmissionController ac({}, weights);
  EXPECT_TRUE(DecideForCandidate(w, ac));
}

TEST(AdmissionTest, UsmCheckCanBeDisabled) {
  Workload w = ThreeQueryWorkload(1.1, 1.55, 500.0, 200.0);
  UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  AdmissionParams params;
  params.usm_check_enabled = false;
  AdmissionController ac(params, weights);
  EXPECT_TRUE(DecideForCandidate(w, ac));
}

TEST(AdmissionTest, NaiveWeightsUseUnitCosts) {
  // With all-zero penalties the USM check compares at unit cost: one
  // endangered transaction (cost 1) is not *greater* than the rejection
  // cost (1), so the candidate is admitted.
  Workload w = ThreeQueryWorkload(1.1, 1.55, 500.0, 200.0);
  AdmissionController ac({}, UsmWeights{});
  EXPECT_TRUE(DecideForCandidate(w, ac));
}

TEST(AdmissionTest, TightenAndLoosenAdjustCFlexWithinBounds) {
  AdmissionParams params;
  params.initial_c_flex = 1.0;
  params.adjust_step = 0.1;
  params.min_c_flex = 0.9;
  params.max_c_flex = 1.25;
  AdmissionController ac(params, UsmWeights{});
  ac.Tighten();
  EXPECT_NEAR(ac.c_flex(), 1.1, 1e-12);
  ac.Tighten();
  EXPECT_NEAR(ac.c_flex(), 1.21, 1e-12);
  ac.Tighten();  // capped
  EXPECT_NEAR(ac.c_flex(), 1.25, 1e-12);
  for (int i = 0; i < 10; ++i) ac.Loosen();
  EXPECT_NEAR(ac.c_flex(), 0.9, 1e-12);  // floored
}

TEST(AdmissionTest, EarlierDeadlineQueuedWorkCountsTowardEst) {
  // Same as the feasible case, but the queued query q1 now has an earlier
  // deadline than the candidate, adding its 0.5s to the candidate's EST:
  // 0.8 + 0.5 + 0.2 >= 1.4 -> reject.
  Workload w = ThreeQueryWorkload(/*candidate_deadline_s=*/1.4,
                                  /*queued_deadline_s=*/0.9,
                                  /*queued_exec_ms=*/500.0,
                                  /*candidate_exec_ms=*/200.0);
  AdmissionController ac({}, UsmWeights{});
  EXPECT_FALSE(DecideForCandidate(w, ac));
  EXPECT_EQ(ac.rejected_by_deadline(), 1);
}

TEST(AdmissionTest, FcfsDispatchStillProjectsTheEdfSchedule) {
  // A 1000 ms head query runs from t=0. Queued behind it: q1 (300 ms, due
  // 10001 ms) and q2 (100 ms, due 1280 ms). The candidate (200 ms, due
  // 1250 ms) arrives at 3 ms with 997 ms of the head left, so both checks
  // start from t = 1000 ms. In EDF order q2 runs first: it finishes at
  // 1100 ms without the candidate and 1300 ms with it, missing 1280 ms.
  // That one endangered query (C_fm = 1) outweighs a rejection (C_r = .5),
  // under FCFS dispatch as under EDF: admission projects the EDF schedule.
  Workload w;
  w.num_items = 4;
  w.duration = SecondsToSim(30.0);
  w.queries.push_back(Query(0, 0.000, 1000.0, 10.0, {0}));
  w.queries.push_back(Query(1, 0.001, 300.0, 10.0, {1}));
  w.queries.push_back(Query(2, 0.002, 100.0, 1.278, {2}));
  w.queries.push_back(Query(3, 0.003, 200.0, 1.247, {3}));
  EngineParams params;
  params.discipline = QueueDiscipline::kFcfs;
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  auto decide = [&](auto run) {
    AdmissionController ac({}, weights);
    FakePolicy policy;
    policy.admit = [&](EngineContext& engine, const Transaction& q) {
      return ac.Admit(engine, q);
    };
    run(policy);
    EXPECT_EQ(ac.admitted(), 3);
    EXPECT_EQ(ac.rejected_by_deadline(), 0);
    EXPECT_EQ(ac.rejected_by_usm(), 1);
  };
  decide([&](Policy& p) { Engine(w, &p, params).Run(); });
  decide([&](Policy& p) { ReferenceEngine(w, &p, params).Run(); });
}

}  // namespace
}  // namespace unitdb
