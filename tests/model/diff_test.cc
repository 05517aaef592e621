// Differential-oracle harness tests: the naive reference model must agree
// bit-for-bit with the optimized engine on the canned bench configurations
// (Table 1 cells, Fig. 4-7 style setups), the generator must be
// deterministic, and an intentionally perturbed engine must be caught and
// shrunk to a small replayable case.

#include "unit/model/diff.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "unit/model/gen.h"
#include "unit/model/reference_usm.h"
#include "unit/sim/experiment.h"

namespace unitdb {
namespace {

UsmWeights Table2ishWeights() {
  UsmWeights w;
  w.c_r = 0.5;
  w.c_fm = 1.0;
  w.c_fs = 1.0;
  return w;
}

DiffCase StandardCase(UpdateVolume volume, UpdateDistribution distribution,
                      const std::string& policy, const UsmWeights& weights,
                      double scale = 0.02) {
  auto workload = MakeStandardWorkload(volume, distribution, scale, 42);
  EXPECT_TRUE(workload.ok());
  DiffCase c;
  c.workload = *workload;
  c.policy = policy;
  c.weights = weights;
  return c;
}

void ExpectEquivalent(const DiffCase& c, const DiffOptions& opts = {}) {
  auto result = RunDiff(c, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->equivalent)
      << DescribeCase(c) << ": " << result->divergence_count
      << " divergences"
      << (result->divergences.empty() ? "" : "; first: " +
                                                 result->divergences[0]);
}

// --- Reference USM re-derivations ---------------------------------------

TEST(ReferenceUsmTest, PerOutcomeValues) {
  const UsmWeights w = Table2ishWeights();
  EXPECT_DOUBLE_EQ(ReferenceUsmValue(Outcome::kSuccess, w), 1.0);
  EXPECT_DOUBLE_EQ(ReferenceUsmValue(Outcome::kRejected, w), -0.5);
  EXPECT_DOUBLE_EQ(ReferenceUsmValue(Outcome::kDeadlineMiss, w), -1.0);
  EXPECT_DOUBLE_EQ(ReferenceUsmValue(Outcome::kDataStale, w), -1.0);
  EXPECT_DOUBLE_EQ(ReferenceUsmValue(Outcome::kPending, w), 0.0);
}

TEST(ReferenceUsmTest, AgreesWithProductionFormulas) {
  const UsmWeights w = Table2ishWeights();
  OutcomeCounts c;
  c.submitted = 100;
  c.success = 61;
  c.rejected = 17;
  c.dmf = 13;
  c.dsf = 9;
  EXPECT_NEAR(ReferenceUsmTotal(c, w), UsmTotal(c, w), 1e-9);
  EXPECT_NEAR(ReferenceUsmAverage(c, w), UsmAverage(c, w), 1e-9);
  const UsmBreakdown naive = ReferenceUsmDecompose(c, w);
  const UsmBreakdown prod = UsmDecompose(c, w);
  EXPECT_NEAR(naive.s, prod.s, 1e-9);
  EXPECT_NEAR(naive.r, prod.r, 1e-9);
  EXPECT_NEAR(naive.fm, prod.fm, 1e-9);
  EXPECT_NEAR(naive.fs, prod.fs, 1e-9);
}

TEST(ReferenceUsmTest, EmptyCountsAreZero) {
  const UsmWeights w = Table2ishWeights();
  OutcomeCounts c;
  EXPECT_EQ(ReferenceUsmTotal(c, w), 0.0);
  EXPECT_EQ(ReferenceUsmAverage(c, w), 0.0);
  EXPECT_EQ(ReferenceUsmDecompose(c, w).Value(), 0.0);
}

TEST(ReferenceUsmTest, OutcomeEnumerationMatchesCounterPath) {
  const UsmWeights w = Table2ishWeights();
  const std::vector<Outcome> outcomes = {
      Outcome::kSuccess, Outcome::kSuccess, Outcome::kRejected,
      Outcome::kDeadlineMiss, Outcome::kDataStale};
  OutcomeCounts c;
  c.submitted = 5;
  c.success = 2;
  c.rejected = 1;
  c.dmf = 1;
  c.dsf = 1;
  EXPECT_NEAR(ReferenceUsmTotalFromOutcomes(outcomes, w),
              ReferenceUsmTotal(c, w), 1e-12);
}

// --- Generator determinism ----------------------------------------------

TEST(GenTest, SameSeedSameCase) {
  const DiffCase a = GenerateCase(123, 17);
  const DiffCase b = GenerateCase(123, 17);
  EXPECT_EQ(DescribeCase(a), DescribeCase(b));
  ASSERT_EQ(a.workload.queries.size(), b.workload.queries.size());
  for (size_t i = 0; i < a.workload.queries.size(); ++i) {
    EXPECT_EQ(a.workload.queries[i].arrival, b.workload.queries[i].arrival);
    EXPECT_EQ(a.workload.queries[i].exec, b.workload.queries[i].exec);
    EXPECT_EQ(a.workload.queries[i].freshness_req,
              b.workload.queries[i].freshness_req);
  }
  EXPECT_EQ(a.engine.seed, b.engine.seed);
  EXPECT_EQ(a.scenario.faults.size(), b.scenario.faults.size());
}

TEST(GenTest, DifferentIndexDifferentCase) {
  const DiffCase a = GenerateCase(123, 17);
  const DiffCase b = GenerateCase(123, 18);
  EXPECT_NE(DescribeCase(a), DescribeCase(b));
}

TEST(GenTest, IndexRotatesTheImplementationMatrix) {
  EXPECT_EQ(GenerateCase(1, 0).policy, "unit");
  EXPECT_EQ(GenerateCase(1, 1).policy, "imu");
  EXPECT_EQ(GenerateCase(1, 2).policy, "odu");
  EXPECT_EQ(GenerateCase(1, 3).policy, "qmf");
  EXPECT_FALSE(GenerateCase(1, 0).scenario.empty());
  EXPECT_TRUE(GenerateCase(1, 16).scenario.empty());
}

TEST(GenTest, QueriesAreSortedAndSane) {
  const DiffCase c = GenerateCase(7, 3);
  const Workload& w = c.workload;
  ASSERT_FALSE(w.queries.empty());
  for (size_t i = 1; i < w.queries.size(); ++i) {
    EXPECT_LE(w.queries[i - 1].arrival, w.queries[i].arrival);
  }
  for (const QueryRequest& q : w.queries) {
    EXPECT_GT(q.exec, 0);
    EXPECT_GT(q.relative_deadline, q.exec);
    EXPECT_FALSE(q.items.empty());
    for (ItemId it : q.items) {
      EXPECT_GE(it, 0);
      EXPECT_LT(it, w.num_items);
    }
  }
}

// --- Canned bench configurations ----------------------------------------

TEST(DiffEquivalenceTest, Table1CellsAcrossPolicies) {
  const char* policies[] = {"unit", "imu", "odu", "qmf"};
  const UpdateVolume volumes[] = {UpdateVolume::kLow, UpdateVolume::kMedium,
                                  UpdateVolume::kHigh};
  const UpdateDistribution dists[] = {UpdateDistribution::kUniform,
                                      UpdateDistribution::kPositive,
                                      UpdateDistribution::kNegative};
  int i = 0;
  for (UpdateVolume v : volumes) {
    for (UpdateDistribution d : dists) {
      ExpectEquivalent(
          StandardCase(v, d, policies[i % 4], Table2ishWeights()));
      ++i;
    }
  }
}

TEST(DiffEquivalenceTest, Fig4NaiveWeightsAllPolicies) {
  for (const char* policy : {"unit", "imu", "odu", "qmf"}) {
    ExpectEquivalent(StandardCase(UpdateVolume::kMedium,
                                  UpdateDistribution::kUniform, policy,
                                  UsmWeights{}));
  }
}

TEST(DiffEquivalenceTest, Fig5PenaltyWeightSettings) {
  for (const GridVariant& v : Table2WeightsBelowOne()) {
    ExpectEquivalent(StandardCase(UpdateVolume::kMedium,
                                  UpdateDistribution::kUniform, "unit",
                                  v.request.weights));
  }
  for (const GridVariant& v : Table2WeightsAboveOne()) {
    ExpectEquivalent(StandardCase(UpdateVolume::kHigh,
                                  UpdateDistribution::kNegative, "unit",
                                  v.request.weights));
  }
}

TEST(DiffEquivalenceTest, Fig6AblationVariants) {
  for (const char* policy : {"unit-noac", "unit-noum", "unit-bare"}) {
    ExpectEquivalent(StandardCase(UpdateVolume::kMedium,
                                  UpdateDistribution::kPositive, policy,
                                  Table2ishWeights()));
  }
}

TEST(DiffEquivalenceTest, Fig7FaultScenario) {
  for (const char* policy : {"unit", "qmf"}) {
    DiffCase c = StandardCase(UpdateVolume::kMedium,
                              UpdateDistribution::kUniform, policy,
                              Table2ishWeights());
    c.scenario.name = "fig7ish";
    FaultSpec outage;
    outage.kind = FaultKind::kUpdateOutage;
    outage.start_s = 10.0;
    outage.end_s = 25.0;
    outage.items = "*";
    c.scenario.faults.push_back(outage);
    FaultSpec burst;
    burst.kind = FaultKind::kLoadStep;
    burst.start_s = 12.0;
    burst.end_s = 20.0;
    burst.rate_hz = 10.0;
    c.scenario.faults.push_back(burst);
    ExpectEquivalent(c);
  }
}

TEST(DiffEquivalenceTest, EngineKnobToggles) {
  // FCFS dispatch, fast control ticks, noisy estimates.
  DiffCase c = StandardCase(UpdateVolume::kHigh, UpdateDistribution::kUniform,
                            "unit", Table2ishWeights());
  c.engine.discipline = QueueDiscipline::kFcfs;
  c.engine.control_period = SecondsToSim(0.25);
  c.engine.estimate_noise_sigma = 0.3;
  ExpectEquivalent(c);
}

TEST(DiffEquivalenceTest, BothSidesRecordEveryQuery) {
  const DiffCase c = StandardCase(UpdateVolume::kLow,
                                  UpdateDistribution::kUniform, "unit",
                                  Table2ishWeights());
  auto result = RunDiff(c);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->equivalent);
  EXPECT_GT(result->optimized.metrics.counts.submitted, 0);
  for (const DiffRun* side : {&result->optimized, &result->reference}) {
    ASSERT_EQ(std::ssize(side->queries), side->metrics.counts.submitted);
    for (const QueryRecord& q : side->queries) {
      EXPECT_NE(q.outcome, Outcome::kPending);
      EXPECT_GE(q.resolve_time, q.arrival);
    }
  }
}

TEST(DiffEquivalenceTest, SeriesComparisonCanBeDisabled) {
  DiffOptions opts;
  opts.compare_series = false;
  ExpectEquivalent(StandardCase(UpdateVolume::kLow,
                                UpdateDistribution::kNegative, "odu",
                                Table2ishWeights()),
                   opts);
}

TEST(DiffEquivalenceTest, UnknownPolicyFailsCleanly) {
  DiffCase c = StandardCase(UpdateVolume::kLow, UpdateDistribution::kUniform,
                            "unit", Table2ishWeights());
  c.policy = "no-such-policy";
  EXPECT_FALSE(RunDiff(c).ok());
}

// --- Harness self-test: a perturbed engine must be caught and shrunk ----

TEST(PerturbationTest, AdmitOffByOneIsCaught) {
  // gen(3, 0) is a unit-policy case with hundreds of queries; rejecting the
  // 8th admitted query must diverge on any such case.
  const DiffCase c = GenerateCase(3, 0);
  DiffOptions opts;
  opts.perturb = Perturbation::kAdmitOffByOne;
  auto result = RunDiff(c, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->equivalent);
  EXPECT_FALSE(result->divergences.empty());
}

TEST(PerturbationTest, CFlexStepIsCaught) {
  // gen(5, 0) is a unit-policy case whose LBC moves C_flex; an 11% step on
  // the optimized side drifts the admission knob series.
  const DiffCase c = GenerateCase(5, 0);
  DiffOptions opts;
  opts.perturb = Perturbation::kCFlexStep;
  auto result = RunDiff(c, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->equivalent);
}

TEST(PerturbationTest, ShrinksToMinimalReplayableCase) {
  const DiffCase c = GenerateCase(3, 0);
  DiffOptions opts;
  opts.perturb = Perturbation::kAdmitOffByOne;
  const DiffCase shrunk = ShrinkCase(c, opts);
  // Still diverges...
  auto result = RunDiff(shrunk, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->equivalent);
  // ...but is much smaller: halving can reach 8 queries (the fewest that
  // still contain an 8th admission) but never below.
  EXPECT_LT(shrunk.workload.queries.size(), c.workload.queries.size());
  EXPECT_GE(shrunk.workload.queries.size(), 8u);
  EXPECT_LE(shrunk.workload.queries.size(), 16u);
  // Survivors are renumbered to their positions, the ids a generated trace
  // of that length carries.
  for (size_t i = 0; i < shrunk.workload.queries.size(); ++i) {
    EXPECT_EQ(shrunk.workload.queries[i].id, static_cast<TxnId>(i));
  }
  // The replay line survives shrinking.
  const std::string line = DescribeCase(shrunk);
  EXPECT_NE(line.find("seed=3"), std::string::npos) << line;
  EXPECT_NE(line.find("case=0"), std::string::npos) << line;
}

TEST(PerturbationTest, ShrinkReturnsCleanCaseUnchanged) {
  const DiffCase c = GenerateCase(3, 0);
  const DiffCase shrunk = ShrinkCase(c);  // no perturbation: no divergence
  EXPECT_EQ(shrunk.workload.queries.size(), c.workload.queries.size());
  EXPECT_EQ(shrunk.scenario.faults.size(), c.scenario.faults.size());
}

TEST(GenTest, CoarseClockPutsTimesOnAFiveMillisecondGrid) {
  const SimDuration grid = MillisToSim(5.0);
  for (int64_t index = 8; index < 16; ++index) {  // (index / 8) % 4 == 1
    const DiffCase c = GenerateCase(11, index);
    EXPECT_EQ(c.shape, index == 8 ? "flash+coarse" : "coarse");
    SimTime last = 0;
    for (const QueryRequest& q : c.workload.queries) {
      EXPECT_EQ(q.arrival % grid, 0);
      EXPECT_GE(q.arrival, last);
      last = q.arrival;
      EXPECT_EQ(q.exec % grid, 0);
      EXPECT_GT(q.exec, 0);
      EXPECT_EQ(q.relative_deadline % grid, 0);
      EXPECT_GT(q.relative_deadline, q.exec);
    }
    EXPECT_LT(last, c.workload.duration);
    for (const ItemUpdateSpec& u : c.workload.updates) {
      EXPECT_EQ(u.ideal_period % grid, 0);
      EXPECT_EQ(u.update_exec % grid, 0);
      EXPECT_GT(u.update_exec, 0);
      EXPECT_EQ(u.phase % grid, 0);
      EXPECT_GE(u.phase, 0);
      EXPECT_LT(u.phase, u.ideal_period);
    }
  }
  EXPECT_EQ(GenerateCase(11, 7).shape, "plain");
  EXPECT_EQ(GenerateCase(11, 16).shape, "flash");
}

TEST(DescribeCaseTest, MentionsEveryMatrixAxis) {
  const std::string line = DescribeCase(GenerateCase(9, 21));
  for (const char* key :
       {"seed=9", "case=21", "policy=", "discipline=", "faults=", "stream=",
        "shards=", "sjobs=", "sessions=", "shed=", "cache=", "shape=",
        "queries=", "fault_windows="}) {
    EXPECT_NE(line.find(key), std::string::npos) << line;
  }
  // Nothing else: each key the line prints is one checked above.
  EXPECT_EQ(std::count(line.begin(), line.end(), '='), 14) << line;
  DiffCase fcfs = GenerateCase(9, 21);
  fcfs.engine.discipline = QueueDiscipline::kFcfs;
  EXPECT_NE(DescribeCase(fcfs).find("discipline=fcfs"), std::string::npos);
  fcfs.engine.discipline = QueueDiscipline::kEdf;
  EXPECT_NE(DescribeCase(fcfs).find("discipline=edf"), std::string::npos);
}

}  // namespace
}  // namespace unitdb
