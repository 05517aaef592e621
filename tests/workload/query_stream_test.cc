#include "unit/workload/query_source.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "testing/fake_policy.h"
#include "unit/model/reference_query_trace.h"
#include "unit/sched/engine.h"
#include "unit/workload/query_trace.h"
#include "unit/workload/update_trace.h"

namespace unitdb {
namespace {

using testing_support::FakePolicy;

QueryTraceParams SmallParams() {
  QueryTraceParams p;
  p.num_items = 64;
  p.duration = SecondsToSim(200.0);
  p.seed = 7;
  return p;
}

// Every field, bit for bit; stops at the first difference.
void ExpectSameQuery(const QueryRequest& got, const QueryRequest& want,
                     size_t i) {
  ASSERT_EQ(got.id, want.id) << "query " << i;
  ASSERT_EQ(got.arrival, want.arrival) << "query " << i;
  ASSERT_EQ(got.exec, want.exec) << "query " << i;
  ASSERT_EQ(got.relative_deadline, want.relative_deadline) << "query " << i;
  ASSERT_EQ(got.freshness_req, want.freshness_req) << "query " << i;
  ASSERT_EQ(got.items, want.items) << "query " << i;
  ASSERT_EQ(got.preference_class, want.preference_class) << "query " << i;
}

// The two-pass generator in model/ is the oracle: GenerateQueryTrace and
// every prefix of MakeStreamingWorkload's cursor must both equal its
// output, field by field.
void ExpectStreamMatchesTrace(const QueryTraceParams& p) {
  auto oracle = ReferenceGenerateQueryTrace(p);
  ASSERT_TRUE(oracle.ok());
  const std::vector<QueryRequest>& want = oracle->queries;

  auto materialized = GenerateQueryTrace(p);
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(materialized->num_items, oracle->num_items);
  EXPECT_EQ(materialized->duration, oracle->duration);
  EXPECT_EQ(materialized->query_trace_name, oracle->query_trace_name);
  ASSERT_EQ(materialized->queries.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameQuery(materialized->queries[i], want[i], i));
  }

  auto streamed = MakeStreamingWorkload(p);
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed->num_items, oracle->num_items);
  EXPECT_EQ(streamed->duration, oracle->duration);
  EXPECT_TRUE(streamed->queries.empty());
  EXPECT_EQ(streamed->QueryCount(), static_cast<int64_t>(want.size()));
  auto cursor = streamed->NewQueryCursor();
  QueryRequest q;
  size_t i = 0;
  while (cursor->Next(&q)) {
    ASSERT_LT(i, want.size());
    ASSERT_NO_FATAL_FAILURE(ExpectSameQuery(q, want[i], i));
    ++i;
  }
  EXPECT_EQ(i, want.size());
}

TEST(QueryStreamTest, MatchesMaterializedTraceBitForBit) {
  ExpectStreamMatchesTrace(SmallParams());
}

TEST(QueryStreamTest, MatchesOracleAcrossParameterVariants) {
  {
    QueryTraceParams p = SmallParams();
    p.num_preference_classes = 3;  // extra item_rng draw per query
    p.seed = 11;
    ExpectStreamMatchesTrace(p);
  }
  {
    QueryTraceParams p = SmallParams();
    p.working_set_size = 0;  // locality disabled: pure Zipf draws
    p.seed = 12;
    ExpectStreamMatchesTrace(p);
  }
  {
    QueryTraceParams p = SmallParams();
    p.locality_p = 0.0;  // working set maintained but never read
    p.zipf_s = 0.0;      // uniform popularity
    p.seed = 13;
    ExpectStreamMatchesTrace(p);
  }
  {
    QueryTraceParams p = SmallParams();
    p.max_items_per_query = 12;  // read sets can exceed the inline buffer
    p.extra_item_p = 0.9;
    p.seed = 14;
    ExpectStreamMatchesTrace(p);
  }
  {
    QueryTraceParams p = SmallParams();
    p.burst_rate_multiplier = 1.0;  // MMPP degenerates to plain Poisson
    p.mean_burst_sojourn_s = 0.5;
    p.seed = 15;
    ExpectStreamMatchesTrace(p);
  }
  {
    // perfbench's paper-heavy and stream-session queries, over 20 s: 50 Hz
    // with short, frequent flash crowds.
    QueryTraceParams p;
    p.duration = SecondsToSim(20.0);
    p.base_rate_hz = 50.0;
    p.mean_normal_sojourn_s = 9.0;
    p.mean_burst_sojourn_s = 0.25;
    p.seed = 16;
    ExpectStreamMatchesTrace(p);
    // perfbench's shard-write queries: stationary 80 Hz Poisson with
    // deadlines capped at 3x the longest service demand.
    p.base_rate_hz = 80.0;
    p.burst_rate_multiplier = 1.0;
    p.deadline_hi_factor = 3.0;
    p.seed = 17;
    ExpectStreamMatchesTrace(p);
  }
  {
    QueryTraceParams p = SmallParams();
    p.exec_sigma = 0.0;  // every service demand is the median
    p.seed = 18;
    ExpectStreamMatchesTrace(p);
  }
  {
    QueryTraceParams p = SmallParams();
    p.duration = 1;  // one tick: an empty trace, barring a 1-us first gap
    p.seed = 19;
    ExpectStreamMatchesTrace(p);
  }
}

TEST(QueryStreamTest, EveryCursorReplaysTheIdenticalSequence) {
  auto w = MakeStreamingWorkload(SmallParams());
  ASSERT_TRUE(w.ok());
  auto a = w->NewQueryCursor();
  QueryRequest qa;
  // Consume a short prefix from one cursor first: cursors are independent.
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(a->Next(&qa));
  auto b = w->NewQueryCursor();
  QueryRequest qb;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(b->Next(&qb));
  EXPECT_EQ(qa.arrival, qb.arrival);
  EXPECT_EQ(qa.items, qb.items);
  EXPECT_EQ(qa.exec, qb.exec);
  EXPECT_EQ(qa.relative_deadline, qb.relative_deadline);
}

TEST(QueryStreamTest, RejectsTheSameBadParametersAsTheOracle) {
  QueryTraceParams p = SmallParams();
  p.num_items = 0;
  EXPECT_FALSE(ReferenceGenerateQueryTrace(p).ok());
  EXPECT_FALSE(MakeStreamingWorkload(p).ok());
  p = SmallParams();
  p.exec_max_ms = p.exec_min_ms / 2;
  EXPECT_FALSE(ReferenceGenerateQueryTrace(p).ok());
  EXPECT_FALSE(MakeStreamingWorkload(p).ok());
  p = SmallParams();
  p.num_preference_classes = kMaxPreferenceClasses + 1;
  EXPECT_FALSE(ReferenceGenerateQueryTrace(p).ok());
  EXPECT_FALSE(MakeStreamingWorkload(p).ok());
}

TEST(QueryStreamTest, VectorSourceRoundTripsMaterializedQueries) {
  auto w = GenerateQueryTrace(SmallParams());
  ASSERT_TRUE(w.ok());
  const std::vector<QueryRequest> original = w->queries;
  ConvertToStreamingWorkload(&*w);
  EXPECT_TRUE(w->queries.empty());
  ASSERT_NE(w->query_source, nullptr);
  EXPECT_EQ(w->QueryCount(), static_cast<int64_t>(original.size()));

  auto cursor = w->NewQueryCursor();
  QueryRequest q;
  size_t i = 0;
  while (cursor->Next(&q)) {
    ASSERT_LT(i, original.size());
    EXPECT_EQ(q.arrival, original[i].arrival);
    EXPECT_EQ(q.items, original[i].items);
    ++i;
  }
  EXPECT_EQ(i, original.size());
}

TEST(QueryStreamTest, CursorAwareAccessCountsMatchMaterialized) {
  QueryTraceParams p = SmallParams();
  auto materialized = GenerateQueryTrace(p);
  ASSERT_TRUE(materialized.ok());
  auto streaming = MakeStreamingWorkload(p);
  ASSERT_TRUE(streaming.ok());
  EXPECT_EQ(materialized->QueryAccessCounts(),
            streaming->QueryAccessCounts());
  EXPECT_DOUBLE_EQ(materialized->QueryUtilization(),
                   streaming->QueryUtilization());
  EXPECT_EQ(materialized->QueryCount(), streaming->QueryCount());
}

// End to end: an Engine consuming the streamed workload must produce the
// bit-identical run to one consuming the materialized trace, down to the
// event counts: both read their trace through the same staged cursor (this
// also exercises the reserved arrival sequences and the slab under churn).
TEST(QueryStreamTest, EngineRunsStreamedWorkloadIdenticallyToMaterialized) {
  QueryTraceParams qp = SmallParams();
  auto materialized = GenerateQueryTrace(qp);
  ASSERT_TRUE(materialized.ok());
  auto streaming = MakeStreamingWorkload(qp);
  ASSERT_TRUE(streaming.ok());

  UpdateTraceParams up;
  up.volume = UpdateVolume::kMedium;
  up.seed = 21;
  ASSERT_TRUE(GenerateUpdateTrace(up, *materialized).ok());
  ASSERT_TRUE(GenerateUpdateTrace(up, *streaming).ok());

  EngineParams params;
  FakePolicy p1;
  Engine e1(*materialized, &p1, params);
  const RunMetrics m1 = e1.Run();
  FakePolicy p2;
  Engine e2(*streaming, &p2, params);
  const RunMetrics m2 = e2.Run();

  EXPECT_GT(m1.counts.submitted, 0);
  EXPECT_TRUE(m1 == m2);

  // The slab recycles: far fewer slots than transactions processed.
  EXPECT_GT(m2.txn_released, 0);
  EXPECT_EQ(m2.txn_slots_created, m2.txn_live_peak);
  EXPECT_LT(m2.txn_live_peak, m2.counts.submitted + m2.updates_generated);
}

}  // namespace
}  // namespace unitdb
