#include "unit/shard/sharded.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "unit/obs/trace_check.h"
#include "unit/obs/trace_reader.h"
#include "unit/shard/router.h"
#include "unit/sim/experiment.h"
#include "unit/workload/query_source.h"
#include "unit/workload/query_trace.h"
#include "unit/workload/update_trace.h"

namespace unitdb {
namespace {

StatusOr<Workload> SmallWorkload(uint64_t seed = 42) {
  return MakeStandardWorkload(UpdateVolume::kMedium,
                              UpdateDistribution::kUniform, /*scale=*/0.05,
                              seed);
}

// A workload's whole query trace, read through its cursor: shard sub-traces
// are views over the parent trace, not stored vectors.
std::vector<QueryRequest> ReadTrace(const Workload& w) {
  std::vector<QueryRequest> out;
  auto cursor = w.NewQueryCursor();
  QueryRequest q;
  while (cursor->Next(&q)) out.push_back(q);
  return out;
}

TEST(CrossShardJoinTest, ParentSucceedsOnlyIfEverySubSucceeds) {
  EXPECT_EQ(CrossShardJoin(Outcome::kSuccess, Outcome::kSuccess),
            Outcome::kSuccess);
  EXPECT_EQ(CrossShardJoin(Outcome::kSuccess, Outcome::kDataStale),
            Outcome::kDataStale);
  EXPECT_EQ(CrossShardJoin(Outcome::kSuccess, Outcome::kDeadlineMiss),
            Outcome::kDeadlineMiss);
  EXPECT_EQ(CrossShardJoin(Outcome::kSuccess, Outcome::kRejected),
            Outcome::kRejected);
}

TEST(CrossShardJoinTest, DominantPenaltyOrderIsRejectOverDmfOverDsf) {
  // Fig. 2 dominance: reject > deadline miss > stale.
  EXPECT_EQ(CrossShardJoin(Outcome::kRejected, Outcome::kDeadlineMiss),
            Outcome::kRejected);
  EXPECT_EQ(CrossShardJoin(Outcome::kRejected, Outcome::kDataStale),
            Outcome::kRejected);
  EXPECT_EQ(CrossShardJoin(Outcome::kDeadlineMiss, Outcome::kDataStale),
            Outcome::kDeadlineMiss);
}

TEST(CrossShardJoinTest, JoinIsCommutative) {
  const Outcome all[] = {Outcome::kSuccess, Outcome::kRejected,
                         Outcome::kDeadlineMiss, Outcome::kDataStale};
  for (Outcome a : all) {
    for (Outcome b : all) {
      EXPECT_EQ(CrossShardJoin(a, b), CrossShardJoin(b, a));
    }
  }
}

TEST(PartitionWorkloadTest, SingleShardIsTheIdentity) {
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  auto part = PartitionWorkload(*w, ShardRouter(1));
  ASSERT_TRUE(part.ok());
  ASSERT_EQ(part->shards.size(), 1u);
  EXPECT_EQ(part->cross_shard_queries, 0);
  EXPECT_EQ(part->subqueries, static_cast<int64_t>(w->queries.size()));

  const Workload& sub = part->shards[0];
  const std::vector<QueryRequest> queries = ReadTrace(sub);
  ASSERT_EQ(queries.size(), w->queries.size());
  ASSERT_EQ(sub.updates.size(), w->updates.size());
  for (size_t i = 0; i < w->queries.size(); ++i) {
    EXPECT_EQ(queries[i].arrival, w->queries[i].arrival);
    EXPECT_EQ(queries[i].exec, w->queries[i].exec);
    EXPECT_EQ(queries[i].items, w->queries[i].items);
    // Sub id carries the parent trace index.
    EXPECT_EQ(queries[i].id, static_cast<TxnId>(i));
  }
}

TEST(PartitionWorkloadTest, RoutesEveryUpdateToItsOwningShard) {
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  ShardRouter router(4);
  auto part = PartitionWorkload(*w, router);
  ASSERT_TRUE(part.ok());
  size_t total = 0;
  for (int s = 0; s < 4; ++s) {
    for (const auto& u : part->shards[static_cast<size_t>(s)].updates) {
      EXPECT_EQ(router.ShardOf(u.item), s);
      ++total;
    }
    EXPECT_EQ(part->shards[static_cast<size_t>(s)].num_items, w->num_items);
  }
  EXPECT_EQ(total, w->updates.size());
}

TEST(PartitionWorkloadTest, SubQueriesConserveReadSetsAndBoundExec) {
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  ShardRouter router(4);
  auto part = PartitionWorkload(*w, router);
  ASSERT_TRUE(part.ok());

  // Regroup sub-queries by parent trace index.
  struct Parent {
    size_t items = 0;
    SimDuration exec = 0;
    int subs = 0;
  };
  std::map<TxnId, Parent> joined;
  for (const Workload& sub : part->shards) {
    for (const QueryRequest& q : ReadTrace(sub)) {
      Parent& p = joined[q.id];
      p.items += q.items.size();
      p.exec += q.exec;
      ++p.subs;
    }
  }
  ASSERT_EQ(joined.size(), w->queries.size());
  int64_t cross = 0;
  int64_t subs = 0;
  for (size_t i = 0; i < w->queries.size(); ++i) {
    const QueryRequest& q = w->queries[i];
    const Parent& p = joined[static_cast<TxnId>(i)];
    EXPECT_EQ(p.items, q.items.size());
    EXPECT_EQ(p.subs, part->sub_count[i]);
    subs += p.subs;
    if (p.subs > 1) ++cross;
    if (p.subs == 1) {
      EXPECT_EQ(p.exec, q.exec);  // untouched service demand
    } else {
      // Proportional split: conserved up to the >= 1-tick clamp per sub.
      EXPECT_GE(p.exec, q.exec);
      EXPECT_LE(p.exec, q.exec + p.subs);
    }
  }
  EXPECT_EQ(cross, part->cross_shard_queries);
  EXPECT_EQ(subs, part->subqueries);
}

// The partitioner reads the parent trace through its cursor: a streamed
// workload yields the shards of its materialized twin.
TEST(PartitionWorkloadTest, StreamedWorkloadPartitionsLikeItsMaterializedTwin) {
  QueryTraceParams qp;
  qp.num_items = 64;
  qp.duration = SecondsToSim(200.0);
  qp.seed = 7;
  auto materialized = GenerateQueryTrace(qp);
  auto streamed = MakeStreamingWorkload(qp);
  ASSERT_TRUE(materialized.ok() && streamed.ok());
  UpdateTraceParams up;
  up.seed = 21;
  ASSERT_TRUE(GenerateUpdateTrace(up, *materialized).ok());
  ASSERT_TRUE(GenerateUpdateTrace(up, *streamed).ok());

  const ShardRouter router(3);
  auto a = PartitionWorkload(*materialized, router);
  auto b = PartitionWorkload(*streamed, router);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->sub_count, b->sub_count);
  EXPECT_EQ(a->cross_shard_queries, b->cross_shard_queries);
  EXPECT_EQ(a->subqueries, b->subqueries);
  EXPECT_GT(a->cross_shard_queries, 0);
  ASSERT_EQ(a->shards.size(), b->shards.size());
  for (size_t s = 0; s < a->shards.size(); ++s) {
    const Workload& sa = a->shards[s];
    const Workload& sb = b->shards[s];
    EXPECT_EQ(sa.num_items, sb.num_items);
    EXPECT_EQ(sa.duration, sb.duration);
    const std::vector<QueryRequest> trace_a = ReadTrace(sa);
    const std::vector<QueryRequest> trace_b = ReadTrace(sb);
    EXPECT_FALSE(trace_a.empty()) << s;
    ASSERT_EQ(trace_a.size(), trace_b.size()) << s;
    for (size_t i = 0; i < trace_a.size(); ++i) {
      const QueryRequest& qa = trace_a[i];
      const QueryRequest& qb = trace_b[i];
      EXPECT_EQ(qa.id, qb.id);
      EXPECT_EQ(qa.arrival, qb.arrival);
      EXPECT_EQ(qa.exec, qb.exec);
      EXPECT_EQ(qa.relative_deadline, qb.relative_deadline);
      EXPECT_EQ(qa.freshness_req, qb.freshness_req);
      EXPECT_EQ(qa.items, qb.items);
      EXPECT_EQ(qa.preference_class, qb.preference_class);
    }
    ASSERT_EQ(sa.updates.size(), sb.updates.size()) << s;
    for (size_t i = 0; i < sa.updates.size(); ++i) {
      EXPECT_EQ(sa.updates[i].item, sb.updates[i].item);
      EXPECT_EQ(sa.updates[i].ideal_period, sb.updates[i].ideal_period);
      EXPECT_EQ(sa.updates[i].update_exec, sb.updates[i].update_exec);
      EXPECT_EQ(sa.updates[i].phase, sb.updates[i].phase);
    }
  }
}

// Every cursor of a shard view replays the same sub-trace, however the
// cursors interleave, and the view's count is that sub-trace's length.
TEST(PartitionWorkloadTest, ViewCursorsReplayTheSameSubTrace) {
  QueryTraceParams qp;
  qp.num_items = 64;
  qp.duration = SecondsToSim(200.0);
  qp.seed = 11;
  auto materialized = GenerateQueryTrace(qp);
  auto streamed = MakeStreamingWorkload(qp);
  ASSERT_TRUE(materialized.ok() && streamed.ok());
  const ShardRouter router(3);
  for (const Workload* parent : {&*materialized, &*streamed}) {
    auto part = PartitionWorkload(*parent, router);
    ASSERT_TRUE(part.ok());
    int64_t total = 0;
    for (size_t s = 0; s < part->shards.size(); ++s) {
      const Workload& sub = part->shards[s];
      auto first = sub.NewQueryCursor();
      auto second = sub.NewQueryCursor();
      QueryRequest a, b;
      int64_t length = 0;
      while (first->Next(&a)) {
        ASSERT_TRUE(second->Next(&b)) << s << " at " << length;
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.arrival, b.arrival);
        EXPECT_EQ(a.exec, b.exec);
        EXPECT_EQ(a.items, b.items);
        ++length;
      }
      EXPECT_FALSE(second->Next(&b)) << s;
      EXPECT_GT(length, 0) << s;
      EXPECT_EQ(sub.QueryCount(), length) << s;
      total += length;
    }
    EXPECT_EQ(total, part->subqueries);
  }
}

// Two single-item queries on different shards arrive together with a
// deadline shorter than their service demand: admission rejects both at
// their arrival instant, and the merged order breaks the resolve-time tie
// toward the lower shard, whatever the trace order.
TEST(ShardedEngineTest, ResolveTimeTiesGoToTheLowerShard) {
  const ShardRouter router(2);
  ItemId on[2] = {-1, -1};
  for (ItemId item = 0; on[0] < 0 || on[1] < 0; ++item) {
    on[router.ShardOf(item)] = item;
  }
  Workload w;
  w.num_items = std::max(on[0], on[1]) + 1;
  w.duration = SecondsToSim(1.0);
  for (const ItemId item : {on[1], on[0]}) {  // shard 1's query first
    QueryRequest q;
    q.id = static_cast<TxnId>(w.queries.size());
    q.arrival = SecondsToSim(0.5);
    q.exec = SecondsToSim(0.1);
    q.relative_deadline = SecondsToSim(0.01);
    q.items = {item};
    w.queries.push_back(q);
  }
  ShardedParams params;
  params.shards = 2;
  for (const bool reference : {false, true}) {
    params.reference_engines = reference;
    auto r = RunSharded(w, "unit", UsmWeights{1.0, 0.5, 1.0, 0.5}, params);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->queries.size(), 2u);
    for (const ShardQueryRecord& q : r->queries) {
      EXPECT_EQ(q.outcome, Outcome::kRejected) << reference;
      EXPECT_EQ(q.resolve_time, SecondsToSim(0.5)) << reference;
    }
    EXPECT_EQ(r->queries[0].trace_id, 1) << reference;  // shard 0's parent
    EXPECT_EQ(r->queries[1].trace_id, 0) << reference;
  }
}

TEST(ShardedEngineTest, SingleShardMatchesMonolithicBitForBit) {
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  for (const char* policy : {"unit", "imu", "odu", "qmf"}) {
    auto mono = RunExperiment(*w, {.policy = policy, .weights = weights});
    ASSERT_TRUE(mono.ok()) << mono.status().ToString();
    ShardedParams params;
    params.shards = 1;
    auto sharded = RunSharded(*w, policy, weights, params);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

    const RunMetrics& a = mono->metrics;
    const RunMetrics& b = sharded->metrics;
    EXPECT_EQ(a.counts.submitted, b.counts.submitted) << policy;
    EXPECT_EQ(a.counts.success, b.counts.success) << policy;
    EXPECT_EQ(a.counts.rejected, b.counts.rejected) << policy;
    EXPECT_EQ(a.counts.dmf, b.counts.dmf) << policy;
    EXPECT_EQ(a.counts.dsf, b.counts.dsf) << policy;
    EXPECT_EQ(a.busy_s, b.busy_s) << policy;
    EXPECT_EQ(a.preemptions, b.preemptions) << policy;
    EXPECT_EQ(a.lock_restarts, b.lock_restarts) << policy;
    EXPECT_EQ(a.update_commits, b.update_commits) << policy;
    EXPECT_EQ(a.query_response_s.sum(), b.query_response_s.sum()) << policy;
    EXPECT_EQ(a.query_freshness.sum(), b.query_freshness.sum()) << policy;
    EXPECT_EQ(mono->usm, sharded->usm) << policy;
    EXPECT_EQ(sharded->cross_shard_queries, 0) << policy;
  }
}

// Every shard<k>.jsonl is trace_check input: it reads back through the
// writer's schema, shard tag included, and passes every invariant on a run
// with sessions, shedding, a cache and two fault windows per shard.
TEST(ShardedEngineTest, EveryShardTracePassesTheChecker) {
  auto w = SmallWorkload(/*seed=*/7);
  ASSERT_TRUE(w.ok());
  FaultScenarioSpec scenario;
  FaultSpec step;
  step.kind = FaultKind::kLoadStep;
  step.start_s = 20;
  step.end_s = 40;
  step.rate_hz = 10;
  FaultSpec outage;
  outage.kind = FaultKind::kUpdateOutage;
  outage.start_s = 50;
  outage.end_s = 80;
  outage.items = "*";
  scenario.faults = {step, outage};
  const std::filesystem::path root =
      std::filesystem::path(testing::TempDir()) / "shard_trace_check";
  ShardedParams p;
  p.shards = 3;
  p.jobs = 3;
  p.engine.session.sessions = 4;
  p.engine.shed_watermark = 6;
  p.engine.cache.capacity = 32;
  p.scenario = &scenario;
  p.trace_dir = root.string();
  auto r = RunSharded(*w, "unit", UsmWeights{1.0, 0.5, 1.0, 0.5}, p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  for (int s = 0; s < 3; ++s) {
    SCOPED_TRACE(s);
    auto events = ReadTraceFile(
        (root / ("shard" + std::to_string(s) + ".jsonl")).string());
    ASSERT_TRUE(events.ok()) << events.status().ToString();
    const TraceCheckResult check = CheckTrace(*events);
    EXPECT_TRUE(check.ok()) << TraceCheckSummary(check);
    EXPECT_EQ(check.arrivals, r->per_shard[static_cast<size_t>(s)]
                                  .counts.submitted);
    EXPECT_EQ(check.fault_starts, 2);
    EXPECT_EQ(check.fault_stops, 2);
  }
  std::filesystem::remove_all(root);
}

TEST(ShardedEngineTest, ParentAccountingConservesTheTrace) {
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  ShardedParams params;
  params.shards = 4;
  auto r = RunSharded(*w, "unit", UsmWeights{1.0, 0.5, 1.0, 0.5}, params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Merged outcome counts are parent-level: one resolution per input query.
  EXPECT_EQ(r->metrics.counts.submitted,
            static_cast<int64_t>(w->queries.size()));
  EXPECT_EQ(r->metrics.counts.resolved(), r->metrics.counts.submitted);
  EXPECT_EQ(r->queries.size(), w->queries.size());

  // Sub-query accounting: per-shard submissions sum to the split volume.
  int64_t shard_submitted = 0;
  for (const RunMetrics& m : r->per_shard) {
    shard_submitted += m.counts.submitted;
  }
  EXPECT_EQ(shard_submitted, r->subqueries);
  EXPECT_GT(r->cross_shard_queries, 0);
  EXPECT_GT(r->subqueries, static_cast<int64_t>(w->queries.size()));

  // Every parent record joins at least one sub, committed parents carry a
  // freshness in [0, 1], and the merged USM is the Eq. 5 average.
  for (const ShardQueryRecord& q : r->queries) {
    EXPECT_GE(q.subqueries, 1);
    EXPECT_NE(q.outcome, Outcome::kPending);
    if (q.outcome == Outcome::kSuccess || q.outcome == Outcome::kDataStale) {
      EXPECT_GE(q.observed_freshness, 0.0);
      EXPECT_LE(q.observed_freshness, 1.0);
      EXPECT_GE(q.commit_time, 0);
    }
  }
  EXPECT_GE(r->usm, -1.0);
  EXPECT_LE(r->usm, 1.0);
}

TEST(ShardedEngineTest, ShardedExperimentWrapperMatchesRunSharded) {
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  ShardedParams params;
  params.shards = 2;
  auto direct = RunSharded(*w, "unit", weights, params);
  ASSERT_TRUE(direct.ok());
  auto wrapped =
      RunExperiment(*w, {.policy = "unit", .weights = weights, .shards = 2});
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(wrapped->usm, direct->usm);
  EXPECT_EQ(wrapped->metrics.counts.success, direct->metrics.counts.success);
  EXPECT_EQ(wrapped->trace, w->update_trace_name);
}

}  // namespace
}  // namespace unitdb
