// Equivalence properties of the online admission index: the order-statistic
// tree path must make bit-identical decisions to the naive ready-queue scan,
// on every arrival, across every Table 1 trace, policy, weight setting and
// C_flex, and on streamed, closed-loop, shedding and cached runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "testing/fake_policy.h"
#include "unit/core/admission.h"
#include "unit/faults/scenario.h"
#include "unit/faults/schedule.h"
#include "unit/sched/engine.h"
#include "unit/sim/experiment.h"
#include "unit/workload/query_source.h"
#include "unit/workload/spec.h"

namespace unitdb {
namespace {

using testing_support::FakePolicy;

const UpdateVolume kVolumes[] = {UpdateVolume::kLow, UpdateVolume::kMedium,
                                 UpdateVolume::kHigh};
const UpdateDistribution kDists[] = {UpdateDistribution::kUniform,
                                     UpdateDistribution::kPositive,
                                     UpdateDistribution::kNegative};

// --- per-arrival oracle equivalence --------------------------------------

struct ProbeStats {
  int64_t decisions = 0;
  int64_t rejections = 0;
  int64_t nonempty_queue = 0;  ///< decisions taken with queued queries
  RunMetrics metrics;          ///< the probed run's own metrics
};

/// Runs one workload under a FakePolicy that consults two controllers per
/// arrival — indexed and naive-scan — and asserts they agree on every single
/// decision (the engine proceeds with the indexed one).
ProbeStats RunProbed(const Workload& w, double c_flex,
                     const UsmWeights& weights,
                     const EngineParams& params = {}) {
  AdmissionParams indexed_params;
  indexed_params.initial_c_flex = c_flex;
  indexed_params.use_index = true;
  AdmissionParams naive_params = indexed_params;
  naive_params.use_index = false;
  AdmissionController indexed(indexed_params, weights);
  AdmissionController naive(naive_params, weights);

  ProbeStats stats;
  FakePolicy policy;
  policy.admit = [&](EngineContext& engine, const Transaction& q) {
    const bool a = indexed.Admit(engine, q);
    const bool b = naive.Admit(engine, q);
    EXPECT_EQ(a, b) << "decision split for query txn " << q.id() << " at t="
                    << engine.now();
    ++stats.decisions;
    if (!a) ++stats.rejections;
    if (engine.ReadyQueryCount() > 0) ++stats.nonempty_queue;
    return a;
  };
  Engine engine(w, &policy, params);
  EXPECT_TRUE(engine.admission_index().enabled());
  stats.metrics = engine.Run();

  // The two controllers saw identical inputs, so their counters must agree.
  EXPECT_EQ(indexed.admitted(), naive.admitted());
  EXPECT_EQ(indexed.rejected_by_deadline(), naive.rejected_by_deadline());
  EXPECT_EQ(indexed.rejected_by_usm(), naive.rejected_by_usm());
  return stats;
}

TEST(AdmissionIndexEquivalenceTest, MatchesNaiveOnEveryArrival) {
  const double c_flexes[] = {0.5, 1.0, 4.0};
  const UsmWeights weight_sets[] = {
      UsmWeights{},                  // naive: unit-cost USM check
      UsmWeights{1.0, 0.5, 1.0, 0.5},  // C_fm > C_r: both checks live
      UsmWeights{1.0, 2.0, 1.0, 0.5},  // C_r > C_fm: deadline check skipped
  };
  ProbeStats total;
  for (UpdateVolume volume : kVolumes) {
    for (UpdateDistribution dist : kDists) {
      auto w = MakeStandardWorkload(volume, dist, /*scale=*/0.02, /*seed=*/42);
      ASSERT_TRUE(w.ok()) << w.status().ToString();
      for (double c_flex : c_flexes) {
        for (const UsmWeights& weights : weight_sets) {
          const ProbeStats s = RunProbed(*w, c_flex, weights);
          total.decisions += s.decisions;
          total.rejections += s.rejections;
          total.nonempty_queue += s.nonempty_queue;
        }
      }
    }
  }
  // The sweep must actually exercise both checks: decisions with a
  // non-trivial queue and real rejections, not just vacuous agreement.
  EXPECT_GT(total.decisions, 0);
  EXPECT_GT(total.rejections, 0);
  EXPECT_GT(total.nonempty_queue, 0);
}

// --- full-run equivalence across every policy ----------------------------

void ExpectSameOutcome(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.metrics.counts.submitted, b.metrics.counts.submitted);
  EXPECT_EQ(a.metrics.counts.success, b.metrics.counts.success);
  EXPECT_EQ(a.metrics.counts.rejected, b.metrics.counts.rejected);
  EXPECT_EQ(a.metrics.counts.dmf, b.metrics.counts.dmf);
  EXPECT_EQ(a.metrics.counts.dsf, b.metrics.counts.dsf);
  EXPECT_EQ(a.metrics.preemptions, b.metrics.preemptions);
  EXPECT_EQ(a.metrics.lock_restarts, b.metrics.lock_restarts);
  EXPECT_EQ(a.metrics.update_commits, b.metrics.update_commits);
  EXPECT_EQ(a.usm, b.usm);  // bit-identical, not approximately equal
}

TEST(AdmissionIndexEquivalenceTest, FullRunsMatchOnAllTracesAndPolicies) {
  const std::vector<std::string> policies = {"imu", "odu", "qmf", "unit"};
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  EngineParams indexed_engine;
  EngineParams naive_engine;
  naive_engine.use_admission_index = false;
  PolicyOptions indexed_options;
  PolicyOptions naive_options;
  naive_options.unit.admission.use_index = false;
  for (UpdateVolume volume : kVolumes) {
    for (UpdateDistribution dist : kDists) {
      auto w = MakeStandardWorkload(volume, dist, /*scale=*/0.02, /*seed=*/42);
      ASSERT_TRUE(w.ok()) << w.status().ToString();
      for (const std::string& policy : policies) {
        auto a = RunExperiment(*w, policy, weights, indexed_engine,
                               indexed_options);
        auto b =
            RunExperiment(*w, policy, weights, naive_engine, naive_options);
        ASSERT_TRUE(a.ok() && b.ok());
        SCOPED_TRACE(w->update_trace_name + " / " + policy);
        ExpectSameOutcome(*a, *b);
      }
    }
  }
}

// A burst-plus-outage-plus-load-step schedule: the indexed controller must
// agree with the naive scan while the queue holds a mix of workload and
// injected transactions.
StatusOr<FaultSchedule> StressSchedule(const Workload& w) {
  const double duration_s = SimToSeconds(w.duration);
  auto spec = FaultScenarioSpec::Parse(
      "fault0.kind = load-step\n"
      "fault0.start_s = " + std::to_string(0.25 * duration_s) + "\n"
      "fault0.end_s = " + std::to_string(0.75 * duration_s) + "\n"
      "fault0.rate_hz = 25\n"
      "fault1.kind = update-burst\n"
      "fault1.start_s = " + std::to_string(0.3 * duration_s) + "\n"
      "fault1.end_s = " + std::to_string(0.5 * duration_s) + "\n"
      "fault1.items = *\nfault1.rate_hz = 2\n"
      "fault2.kind = update-outage\n"
      "fault2.start_s = " + std::to_string(0.55 * duration_s) + "\n"
      "fault2.end_s = " + std::to_string(0.7 * duration_s) + "\n"
      "fault2.items = *\n");
  if (!spec.ok()) return spec.status();
  return FaultSchedule::Compile(*spec, w, 42);
}

TEST(AdmissionIndexEquivalenceTest, FaultLadenArrivalsMatchNaive) {
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  ProbeStats total;
  for (UpdateDistribution dist : kDists) {
    auto w = MakeStandardWorkload(UpdateVolume::kMedium, dist,
                                  /*scale=*/0.02, /*seed=*/42);
    ASSERT_TRUE(w.ok());
    auto faults = StressSchedule(*w);
    ASSERT_TRUE(faults.ok()) << faults.status().ToString();
    ASSERT_FALSE(faults->injected_queries().empty());
    EngineParams params;
    params.faults = &*faults;
    for (double c_flex : {0.5, 1.0}) {
      const ProbeStats s = RunProbed(*w, c_flex, weights, params);
      // Injected queries face the same admission decision as workload ones.
      EXPECT_GT(s.decisions, static_cast<int64_t>(w->queries.size()));
      total.decisions += s.decisions;
      total.rejections += s.rejections;
      total.nonempty_queue += s.nonempty_queue;
    }
  }
  EXPECT_GT(total.rejections, 0);
  EXPECT_GT(total.nonempty_queue, 0);
}

TEST(AdmissionIndexEquivalenceTest, FaultLadenFullRunsMatch) {
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  EngineParams naive_engine;
  naive_engine.use_admission_index = false;
  PolicyOptions naive_options;
  naive_options.unit.admission.use_index = false;
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform,
                                /*scale=*/0.02, /*seed=*/42);
  ASSERT_TRUE(w.ok());
  auto faults = StressSchedule(*w);
  ASSERT_TRUE(faults.ok()) << faults.status().ToString();
  for (const char* policy : {"imu", "odu", "qmf", "unit"}) {
    auto a = RunFaultedExperiment(*w, policy, weights, *faults, {}, {}, {});
    auto b = RunFaultedExperiment(*w, policy, weights, *faults, {},
                                  naive_engine, naive_options);
    ASSERT_TRUE(a.ok() && b.ok());
    SCOPED_TRACE(policy);
    ExpectSameOutcome(*a, *b);
    EXPECT_GT(a->metrics.fault_injected_queries, 0);
    EXPECT_EQ(a->metrics.fault_injected_queries,
              b->metrics.fault_injected_queries);
    EXPECT_EQ(a->metrics.fault_suppressed_updates,
              b->metrics.fault_suppressed_updates);
  }
}

TEST(AdmissionIndexEquivalenceTest, EventCompactionDoesNotChangeOutcomes) {
  EngineParams compacting;
  EngineParams lazy_only;
  lazy_only.compact_events = false;
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  for (UpdateVolume volume : {UpdateVolume::kMedium, UpdateVolume::kHigh}) {
    auto w = MakeStandardWorkload(volume, UpdateDistribution::kNegative,
                                  /*scale=*/0.05, /*seed=*/42);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    for (const char* policy : {"unit", "qmf"}) {
      auto a = RunExperiment(*w, policy, weights, compacting);
      auto b = RunExperiment(*w, policy, weights, lazy_only);
      ASSERT_TRUE(a.ok() && b.ok());
      SCOPED_TRACE(w->update_trace_name + " / " + policy);
      ExpectSameOutcome(*a, *b);
      // Tombstones accumulate either way; only the compacting run removes
      // them from the heap.
      EXPECT_GT(a->metrics.events_cancelled, 0);
      EXPECT_EQ(a->metrics.events_cancelled, b->metrics.events_cancelled);
      EXPECT_EQ(b->metrics.events_compacted, 0);
      EXPECT_LE(a->metrics.events_processed, b->metrics.events_processed);
    }
  }
}

// The streamed, closed-loop workload: arrivals come from a cursor, rejected
// and missed queries come back as session retries, shedding evicts queued
// queries and cache hits never enter the ready queue. Every one of those
// arrivals is indexed, so the indexed controller must still agree.
TEST(AdmissionIndexEquivalenceTest,
     StreamedSessionsSheddingAndCacheMatchNaive) {
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform,
                                /*scale=*/0.02, /*seed=*/42);
  ASSERT_TRUE(w.ok());
  ConvertToStreamingWorkload(&*w);
  EngineParams params;
  params.session.sessions = 4;
  params.shed_watermark = 6;
  params.cache.capacity = 32;
  ProbeStats total;
  int64_t shed = 0;
  for (double c_flex : {0.5, 1.0, 4.0}) {
    for (const UsmWeights& weights :
         {UsmWeights{}, UsmWeights{1.0, 0.5, 1.0, 0.5}}) {
      const ProbeStats s = RunProbed(*w, c_flex, weights, params);
      total.rejections += s.rejections;
      total.nonempty_queue += s.nonempty_queue;
      // The mix must really retry, shed and serve from the cache.
      EXPECT_GT(s.metrics.session_retries, 0);
      EXPECT_GT(s.metrics.cache_hits, 0);
      shed += s.metrics.queries_shed;
    }
  }
  EXPECT_GT(total.rejections, 0);
  EXPECT_GT(total.nonempty_queue, 0);
  EXPECT_GT(shed, 0);
}

TEST(AdmissionIndexTest, EnabledOnStreamedAndSessionEngines) {
  auto w = MakeStandardWorkload(UpdateVolume::kLow, UpdateDistribution::kUniform,
                                /*scale=*/0.01, /*seed=*/42);
  ASSERT_TRUE(w.ok());
  Workload streamed = *w;
  ConvertToStreamingWorkload(&streamed);
  FakePolicy policy;
  EngineParams sessions;
  sessions.session.sessions = 4;
  EXPECT_TRUE(Engine(*w, &policy, sessions).admission_index().enabled());
  EXPECT_TRUE(
      Engine(streamed, &policy, EngineParams{}).admission_index().enabled());
  Engine streamed_sessions(streamed, &policy, sessions);
  EXPECT_TRUE(streamed_sessions.admission_index().enabled());
  streamed_sessions.Run();
}

TEST(AdmissionIndexTest, DisabledUnderFcfsDispatch) {
  auto w = MakeStandardWorkload(UpdateVolume::kLow, UpdateDistribution::kUniform,
                                /*scale=*/0.01, /*seed=*/42);
  ASSERT_TRUE(w.ok());
  FakePolicy policy;
  EngineParams params;
  params.discipline = QueueDiscipline::kFcfs;
  Engine engine(*w, &policy, params);
  EXPECT_FALSE(engine.admission_index().enabled());
  engine.Run();  // and the run itself stays well-formed
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
  // Reference answers come from re-simulating the naive scan over the queued
  // set in EDF (deadline, id) order.
  auto brute = [&](SimTime d, int64_t lo, int64_t hi, SimDuration* earlier,
                   int64_t* later_count) -> int64_t {
    std::vector<const Transaction*> later;
    *earlier = 0;
    for (int i = 0; i < kQueries; ++i) {
      if (!queued[i]) continue;
      if (txns[i].absolute_deadline() <= d) {
        *earlier += txns[i].remaining();
      } else {
        later.push_back(&txns[i]);
      }
    }
    std::sort(later.begin(), later.end(),
              [](const Transaction* a, const Transaction* b) {
                if (a->absolute_deadline() != b->absolute_deadline())
                  return a->absolute_deadline() < b->absolute_deadline();
                return a->id() < b->id();
              });
    *later_count = static_cast<int64_t>(later.size());
    int64_t prefix = 0;
    int64_t endangered = 0;
    for (const Transaction* t : later) {
      prefix += t->remaining();
      const int64_t m = t->absolute_deadline() - prefix;
      if (m >= lo && m < hi) ++endangered;
    }
    return endangered;
  };
  AdmissionIndex index;
  index.Init(Workload{});
  int64_t empty_probes = 0;
  auto probe = [&](int step) {
    ASSERT_EQ(index.occupied(), queued_count) << "step " << step;
    if (queued_count == 0) ++empty_probes;
    // Probe near a random query's deadline (often exactly on a tie run)
    // with a random lag window.
    const int at = static_cast<int>(rng() % kQueries);
    const SimTime d = txns[at].absolute_deadline() +
                      static_cast<SimTime>(rng() % 3) - 1;
    const int64_t lo = static_cast<int64_t>(rng() % SecondsToSim(3.5)) -
                       SecondsToSim(0.5);
    const int64_t hi = lo + 1 + static_cast<int64_t>(rng() % SecondsToSim(1.0));
    SimDuration want_earlier = 0;
    int64_t want_later = 0;
    const int64_t want_endangered = brute(d, lo, hi, &want_earlier, &want_later);
    ASSERT_EQ(index.EarlierWork(d), want_earlier) << "step " << step;
    ASSERT_EQ(index.LaterCount(d), want_later) << "step " << step;
    ASSERT_EQ(index.CountEndangered(d, lo, hi), want_endangered)
        << "step " << step << " d=" << d << " lo=" << lo << " hi=" << hi;
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
}

TEST(AdmissionIndexTest, EqualDeadlinesOrderByTxnIdWhateverInsertionOrder) {
  // Four queries share deadline 5 s; one more is due at 2 s. In EDF order
  // (deadline, id) the tie run is ids 2, 4, 7, 9 with work 20, 80, 10, 40 ms,
  // so past the 2 s boundary their lags are 5 s minus 20, 100, 110 and
  // 150 ms. Any other tie order gives other lags.
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
  const SimTime d5 = SecondsToSim(5.0);
  const double want_lag_ms[] = {20, 100, 110, 150};
  std::vector<int> order = {0, 1, 2, 3, 4};
  int permutations = 0;
  do {
    AdmissionIndex index;
    index.Init(Workload{});
    for (int k : order) index.OnInsert(txns[static_cast<size_t>(k)]);
    SCOPED_TRACE(::testing::PrintToString(order));
    EXPECT_EQ(index.EarlierWork(SecondsToSim(3.0)), MillisToSim(5));
    EXPECT_EQ(index.EarlierWork(d5), MillisToSim(155));
    EXPECT_EQ(index.LaterCount(SecondsToSim(3.0)), 4);
    EXPECT_EQ(index.LaterCount(d5), 0);
    for (double lag_ms : want_lag_ms) {
      const int64_t m = d5 - MillisToSim(lag_ms);
      EXPECT_EQ(index.CountEndangered(SecondsToSim(3.0), m, m + 1), 1)
          << "lag 5 s - " << lag_ms << " ms";
    }
    EXPECT_EQ(index.CountEndangered(SecondsToSim(3.0), d5 - MillisToSim(150),
                                    d5 - MillisToSim(20) + 1),
              4);
    // Insertion order's lags (10, 30, 70 ms) must not appear.
    for (double lag_ms : {10.0, 30.0, 70.0}) {
      const int64_t m = d5 - MillisToSim(lag_ms);
      EXPECT_EQ(index.CountEndangered(SecondsToSim(3.0), m, m + 1), 0);
    }
    ++permutations;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(permutations, 120);
}

}  // namespace
}  // namespace unitdb
