#include "unit/workload/query_source.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "testing/fake_policy.h"
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

// The materialized generator is the oracle: every prefix of the stream must
// be bit-identical to GenerateQueryTrace's output, field by field.
void ExpectStreamMatchesTrace(const QueryTraceParams& p) {
  auto oracle = GenerateQueryTrace(p);
  ASSERT_TRUE(oracle.ok());
  auto source = StreamingQuerySource::Make(p);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ((*source)->count(),
            static_cast<int64_t>(oracle->queries.size()));

  auto cursor = (*source)->NewCursor();
  QueryRequest q;
  size_t i = 0;
  while (cursor->Next(&q)) {
    ASSERT_LT(i, oracle->queries.size());
    const QueryRequest& want = oracle->queries[i];
    ASSERT_EQ(q.id, want.id);
    ASSERT_EQ(q.arrival, want.arrival) << "query " << i;
    ASSERT_EQ(q.exec, want.exec) << "query " << i;
    ASSERT_EQ(q.relative_deadline, want.relative_deadline) << "query " << i;
    ASSERT_EQ(q.freshness_req, want.freshness_req) << "query " << i;
    ASSERT_EQ(q.items, want.items) << "query " << i;
    ASSERT_EQ(q.preference_class, want.preference_class) << "query " << i;
    ++i;
  }
  EXPECT_EQ(i, oracle->queries.size());
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
}

TEST(QueryStreamTest, EveryCursorReplaysTheIdenticalSequence) {
  auto source = StreamingQuerySource::Make(SmallParams());
  ASSERT_TRUE(source.ok());
  auto a = (*source)->NewCursor();
  QueryRequest qa;
  // Consume a short prefix from one cursor first: cursors are independent.
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(a->Next(&qa));
  auto b = (*source)->NewCursor();
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
  EXPECT_FALSE(StreamingQuerySource::Make(p).ok());
  p = SmallParams();
  p.exec_max_ms = p.exec_min_ms / 2;
  EXPECT_FALSE(StreamingQuerySource::Make(p).ok());
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
