// The online admission index: the engine's answers to admission control
// must match the reference engine's ready-queue scan (model/) decision for
// decision, across every Table 1 trace, weight setting, C_flex and dispatch
// discipline, and on fault-laden, streamed, closed-loop, shedding and cached
// runs; and the index itself must match a brute-force recompute.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "unit/core/admission.h"
#include "unit/faults/scenario.h"
#include "unit/model/diff.h"
#include "unit/sim/experiment.h"
#include "unit/workload/spec.h"

namespace unitdb {
namespace {

const UpdateVolume kVolumes[] = {UpdateVolume::kLow, UpdateVolume::kMedium,
                                 UpdateVolume::kHigh};
const UpdateDistribution kDists[] = {UpdateDistribution::kUniform,
                                     UpdateDistribution::kPositive,
                                     UpdateDistribution::kNegative};

// --- engine vs reference engine, through the oracle -----------------------

struct DiffStats {
  int64_t runs = 0;
  int64_t rejections = 0;    ///< queries admission control turned away
  int64_t deep_queues = 0;   ///< runs whose ready queue held > 1 transaction
  RunMetrics metrics;        ///< the last run's optimized-side metrics
};

/// Runs `c` on the optimized engine and on the reference engine, whose
/// admission answers come from a ready-queue scan, and expects bit-identical
/// runs: every per-query outcome, every compared metric, every window sample.
void ExpectMatchesReference(const DiffCase& c, DiffStats* stats) {
  auto result = RunDiff(c);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->equivalent)
      << c.policy << " c_flex=" << c.options.unit.admission.initial_c_flex
      << " fcfs=" << (c.engine.discipline == QueueDiscipline::kFcfs)
      << " first: "
      << (result->divergences.empty() ? "" : result->divergences.front());
  const RunMetrics& m = result->optimized.metrics;
  ++stats->runs;
  stats->rejections += m.counts.rejected;
  if (m.peak_ready_depth > 1) ++stats->deep_queues;
  stats->metrics = m;
}

/// A case for the "unit" policy, the one that calls AdmissionController.
DiffCase UnitCase(const Workload& w, const UsmWeights& weights, double c_flex,
                  QueueDiscipline discipline = QueueDiscipline::kEdf) {
  DiffCase c;
  c.workload = w;
  c.policy = "unit";
  c.weights = weights;
  c.options.unit.admission.initial_c_flex = c_flex;
  c.engine.discipline = discipline;
  return c;
}

TEST(AdmissionIndexEquivalenceTest, MatchesNaiveOnEveryArrival) {
  const double c_flexes[] = {0.5, 1.0, 4.0};
  const UsmWeights weight_sets[] = {
      UsmWeights{},                    // naive: unit-cost USM check
      UsmWeights{1.0, 0.5, 1.0, 0.5},  // C_fm > C_r: both checks live
      UsmWeights{1.0, 2.0, 1.0, 0.5},  // C_r > C_fm: deadline check skipped
  };
  DiffStats stats;
  for (UpdateVolume volume : kVolumes) {
    for (UpdateDistribution dist : kDists) {
      auto w = MakeStandardWorkload(volume, dist, /*scale=*/0.02, /*seed=*/42);
      ASSERT_TRUE(w.ok()) << w.status().ToString();
      SCOPED_TRACE(w->update_trace_name);
      for (QueueDiscipline discipline :
           {QueueDiscipline::kEdf, QueueDiscipline::kFcfs}) {
        for (const UsmWeights& weights : weight_sets) {
          for (double c_flex : c_flexes) {
            ExpectMatchesReference(UnitCase(*w, weights, c_flex, discipline),
                                   &stats);
          }
        }
      }
    }
  }
  // The sweep must actually exercise both checks: real rejections against
  // a non-trivial queue, not just vacuous agreement.
  EXPECT_EQ(stats.runs, 9 * 2 * 3 * 3);
  EXPECT_GT(stats.rejections, 0);
  EXPECT_GT(stats.deep_queues, 0);
}

TEST(AdmissionIndexEquivalenceTest, FullRunsMatchOnAllTracesAndPolicies) {
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  DiffStats stats;
  for (UpdateVolume volume : kVolumes) {
    for (UpdateDistribution dist : kDists) {
      auto w = MakeStandardWorkload(volume, dist, /*scale=*/0.02, /*seed=*/42);
      ASSERT_TRUE(w.ok()) << w.status().ToString();
      SCOPED_TRACE(w->update_trace_name);
      for (const char* policy : {"imu", "odu", "qmf", "unit"}) {
        DiffCase c = UnitCase(*w, weights, 1.0);
        c.policy = policy;
        ExpectMatchesReference(c, &stats);
      }
    }
  }
  EXPECT_GT(stats.rejections, 0);
}

// A burst-plus-outage-plus-load-step schedule: the queue holds a mix of
// workload and injected transactions. The burst covers items 0-63 only: a
// burst on all 1024 items floods the reference engine's linear event scan.
FaultScenarioSpec StressScenario(const Workload& w) {
  const double duration_s = SimToSeconds(w.duration);
  auto spec = FaultScenarioSpec::Parse(
      "fault0.kind = load-step\n"
      "fault0.start_s = " + std::to_string(0.25 * duration_s) + "\n"
      "fault0.end_s = " + std::to_string(0.75 * duration_s) + "\n"
      "fault0.rate_hz = 25\n"
      "fault1.kind = update-burst\n"
      "fault1.start_s = " + std::to_string(0.3 * duration_s) + "\n"
      "fault1.end_s = " + std::to_string(0.5 * duration_s) + "\n"
      "fault1.items = 0-63\nfault1.rate_hz = 2\n"
      "fault2.kind = update-outage\n"
      "fault2.start_s = " + std::to_string(0.55 * duration_s) + "\n"
      "fault2.end_s = " + std::to_string(0.7 * duration_s) + "\n"
      "fault2.items = *\n");
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.ok() ? *spec : FaultScenarioSpec{};
}

TEST(AdmissionIndexEquivalenceTest, FaultLadenArrivalsMatchNaive) {
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  DiffStats stats;
  for (UpdateDistribution dist : kDists) {
    auto w = MakeStandardWorkload(UpdateVolume::kMedium, dist,
                                  /*scale=*/0.02, /*seed=*/42);
    ASSERT_TRUE(w.ok());
    SCOPED_TRACE(w->update_trace_name);
    for (double c_flex : {0.5, 1.0}) {
      DiffCase c = UnitCase(*w, weights, c_flex);
      c.scenario = StressScenario(*w);
      ASSERT_FALSE(c.scenario.empty());
      ExpectMatchesReference(c, &stats);
      // Injected queries face the same admission decision as workload ones.
      EXPECT_GT(stats.metrics.fault_injected_queries, 0);
      EXPECT_GT(stats.metrics.fault_suppressed_updates, 0);
    }
  }
  EXPECT_GT(stats.rejections, 0);
  EXPECT_GT(stats.deep_queues, 0);
}

TEST(AdmissionIndexEquivalenceTest, FaultLadenFullRunsMatch) {
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform,
                                /*scale=*/0.02, /*seed=*/42);
  ASSERT_TRUE(w.ok());
  DiffStats stats;
  for (const char* policy : {"imu", "odu", "qmf", "unit"}) {
    DiffCase c = UnitCase(*w, UsmWeights{1.0, 0.5, 1.0, 0.5}, 1.0);
    c.policy = policy;
    c.scenario = StressScenario(*w);
    ExpectMatchesReference(c, &stats);
    EXPECT_GT(stats.metrics.fault_injected_queries, 0) << policy;
  }
}

// The streamed, closed-loop workload: arrivals come from a cursor, rejected
// and missed queries come back as session retries, shedding evicts queued
// queries and cache hits never enter the ready queue. Every one of those
// arrivals is indexed, so the engine must still agree with the scan.
TEST(AdmissionIndexEquivalenceTest,
     StreamedSessionsSheddingAndCacheMatchNaive) {
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform,
                                /*scale=*/0.02, /*seed=*/42);
  ASSERT_TRUE(w.ok());
  DiffStats stats;
  int64_t shed = 0;
  for (const UsmWeights& weights :
       {UsmWeights{}, UsmWeights{1.0, 0.5, 1.0, 0.5}}) {
    for (double c_flex : {0.5, 1.0, 4.0}) {
      DiffCase c = UnitCase(*w, weights, c_flex);
      c.stream_queries = true;
      c.engine.session.sessions = 4;
      c.engine.shed_watermark = 6;
      c.engine.cache.capacity = 32;
      ExpectMatchesReference(c, &stats);
      // The mix must really retry, shed and serve from the cache.
      EXPECT_GT(stats.metrics.session_retries, 0);
      EXPECT_GT(stats.metrics.cache_hits, 0);
      shed += stats.metrics.queries_shed;
    }
  }
  EXPECT_GT(stats.rejections, 0);
  EXPECT_GT(stats.deep_queues, 0);
  EXPECT_GT(shed, 0);
}

// C_r / C_fm = 1e12: no queue endangers enough to reject, and the engine's
// search for the count that would stops at the queue's length. Unbounded,
// it would add C_fm 1e12 times per decision.
TEST(AdmissionIndexEquivalenceTest, ExtremeCostRatioMatchesNaive) {
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform,
                                /*scale=*/0.02, /*seed=*/42);
  ASSERT_TRUE(w.ok());
  DiffStats stats;
  ExpectMatchesReference(UnitCase(*w, UsmWeights{1.0, 1e6, 1e-6, 0.0}, 1.0),
                         &stats);
  EXPECT_GT(stats.deep_queues, 0);
}

// --- randomized structural check against brute force ---------------------

TEST(AdmissionIndexTest, RandomizedMatchesBruteForce) {
  std::mt19937_64 rng(20260805);
  const int kQueries = 200;

  // Ids are a shuffled, gapped permutation (not monotone in arrival), and
  // deadlines come from a few dozen values, so equal-deadline runs are long
  // and only the id tie-break orders them.
  std::vector<TxnId> ids(kQueries);
  std::iota(ids.begin(), ids.end(), TxnId{0});
  std::shuffle(ids.begin(), ids.end(), rng);
  std::vector<Transaction> txns;
  txns.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    const SimTime arrival = static_cast<SimTime>(rng() % MillisToSim(500));
    const SimTime deadline = MillisToSim(100) * (1 + rng() % 30);
    const SimDuration exec =
        1 + static_cast<SimDuration>(rng() % MillisToSim(200));
    txns.push_back(Transaction::MakeQuery(3 * ids[i] + 1, arrival, exec,
                                          deadline + MillisToSim(500) - arrival,
                                          0.9, {0}));
  }

  std::vector<bool> queued(kQueries, false);
  int64_t queued_count = 0;
  // Reference answers come from re-simulating a scan over the queued set in
  // EDF (deadline, id) order: a query's lag is its deadline minus the work
  // of every queued query through itself, earlier-deadline ones included.
  auto brute = [&](SimTime d, int64_t lo, int64_t hi,
                   SimDuration* earlier) -> int64_t {
    std::vector<const Transaction*> edf;
    for (int i = 0; i < kQueries; ++i) {
      if (queued[i]) edf.push_back(&txns[i]);
    }
    std::sort(edf.begin(), edf.end(),
              [](const Transaction* a, const Transaction* b) {
                if (a->absolute_deadline() != b->absolute_deadline())
                  return a->absolute_deadline() < b->absolute_deadline();
                return a->id() < b->id();
              });
    *earlier = 0;
    int64_t prefix = 0;
    int64_t endangered = 0;
    for (const Transaction* t : edf) {
      prefix += t->remaining();
      if (t->absolute_deadline() <= d) {
        *earlier += t->remaining();
        continue;
      }
      const int64_t m = t->absolute_deadline() - prefix;
      if (m >= lo && m < hi) ++endangered;
    }
    return endangered;
  };
  AdmissionIndex index;
  int64_t empty_probes = 0;
  int64_t counted_probes = 0;  ///< probes with endangered queries below cap
  int64_t capped_probes = 0;   ///< probes the cap cut short
  auto probe = [&](int step) {
    ASSERT_EQ(index.occupied(), queued_count) << "step " << step;
    if (queued_count == 0) ++empty_probes;
    // Probe near a random query's deadline (often exactly on a tie run)
    // with a random lag window and a random cap (0 counts nothing).
    const int at = static_cast<int>(rng() % kQueries);
    const SimTime d = txns[at].absolute_deadline() +
                      static_cast<SimTime>(rng() % 3) - 1;
    const int64_t lo = static_cast<int64_t>(rng() % SecondsToSim(9.0)) -
                       SecondsToSim(6.0);
    const int64_t hi = lo + 1 + static_cast<int64_t>(rng() % SecondsToSim(2.0));
    const int64_t cap =
        rng() % 4 == 0 ? kQueries : static_cast<int64_t>(rng() % 8);
    SimDuration want_earlier = 0;
    const int64_t want = brute(d, lo, hi, &want_earlier);
    const AdmissionIndex::Projection p = index.Project(d, lo, hi, cap);
    ASSERT_EQ(p.earlier_work, want_earlier) << "step " << step;
    ASSERT_EQ(p.endangered, std::min(want, cap))
        << "step " << step << " d=" << d << " lo=" << lo << " hi=" << hi
        << " cap=" << cap;
    if (want > 0 && want < cap) ++counted_probes;
    if (want > cap) ++capped_probes;
  };

  probe(-1);  // a fresh index
  for (int step = 0; step < 6000; ++step) {
    if (step % 1500 == 1499) {
      // Drain in random order: probes the empty index again, and the
      // refill after it reuses freed nodes.
      for (int i = 0; i < kQueries; ++i) {
        if (!queued[i]) continue;
        index.OnRemove(txns[i]);
        queued[i] = false;
        --queued_count;
      }
      probe(step);
      continue;
    }
    const int i = static_cast<int>(rng() % kQueries);
    if (queued[i]) {
      index.OnRemove(txns[i]);
      queued[i] = false;
      --queued_count;
    } else {
      // Remaining work only changes while a query is out of the queue.
      txns[i].set_remaining(1 + static_cast<SimDuration>(
                                    rng() % txns[i].exec_time()));
      index.OnInsert(txns[i]);
      queued[i] = true;
      ++queued_count;
    }
    probe(step);
  }
  EXPECT_GE(empty_probes, 5);
  EXPECT_GT(counted_probes, 100);
  EXPECT_GT(capped_probes, 100);
}

TEST(AdmissionIndexTest, EqualDeadlinesOrderByTxnIdWhateverInsertionOrder) {
  // Four queries share deadline 5 s; one more (5 ms of work) is due at 2 s.
  // In EDF order (deadline, id) the tie run is ids 2, 4, 7, 9 with work 20,
  // 80, 10, 40 ms, so behind the 5 ms due earlier their lags are 5 s minus
  // 25, 105, 115 and 155 ms. Any other tie order gives other lags.
  struct Q {
    TxnId id;
    double deadline_s;
    double work_ms;
  };
  const Q qs[] = {{7, 5.0, 10}, {2, 5.0, 20}, {9, 5.0, 40}, {4, 5.0, 80},
                  {1, 2.0, 5}};
  std::vector<Transaction> txns;
  for (const Q& q : qs) {
    txns.push_back(Transaction::MakeQuery(q.id, 0, MillisToSim(q.work_ms),
                                          SecondsToSim(q.deadline_s), 0.9,
                                          {0}));
  }
  const SimTime d3 = SecondsToSim(3.0);
  const SimTime d5 = SecondsToSim(5.0);
  const double want_lag_ms[] = {25, 105, 115, 155};
  std::mt19937_64 rng(20261018);
  std::vector<int> order = {0, 1, 2, 3, 4};
  int permutations = 0;
  do {
    AdmissionIndex index;
    for (int k : order) index.OnInsert(txns[static_cast<size_t>(k)]);
    SCOPED_TRACE(::testing::PrintToString(order));
    // A random cap per probe: the count is the true one, capped.
    auto project = [&](SimTime d, int64_t lo, int64_t hi, int64_t want) {
      const int64_t cap = static_cast<int64_t>(rng() % 6);
      const AdmissionIndex::Projection p = index.Project(d, lo, hi, cap);
      EXPECT_EQ(p.endangered, std::min(want, cap)) << "cap " << cap;
      return p.earlier_work;
    };
    EXPECT_EQ(project(d3, 0, 0, 0), MillisToSim(5));
    EXPECT_EQ(project(d5, 0, d5, 0), MillisToSim(155));
    for (double lag_ms : want_lag_ms) {
      const int64_t m = d5 - MillisToSim(lag_ms);
      project(d3, m, m + 1, 1);
    }
    project(d3, d5 - MillisToSim(155), d5 - MillisToSim(25) + 1, 4);
    // Insertion order's lags (15, 35, 75 ms) must not appear.
    for (double lag_ms : {15.0, 35.0, 75.0}) {
      const int64_t m = d5 - MillisToSim(lag_ms);
      project(d3, m, m + 1, 0);
    }
    ++permutations;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(permutations, 120);
}

}  // namespace
}  // namespace unitdb
