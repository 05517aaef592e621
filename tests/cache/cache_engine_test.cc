// Engine-level behavior of the freshness-aware result cache: the
// capacity=0 no-op contract (bit-identical to a default engine for every
// policy), hit/miss/skip accounting over a real run, the Udrop staleness
// bound, reference-vs-optimized agreement through the differential oracle,
// trace invariant 8 on a cached run, and merged counters under sharding.

#include <string>

#include <gtest/gtest.h>

#include "unit/model/diff.h"
#include "unit/obs/trace_check.h"
#include "unit/obs/trace_reader.h"
#include "unit/sim/experiment.h"

namespace unitdb {
namespace {

StatusOr<Workload> StandardWorkload(UpdateVolume volume = UpdateVolume::kMedium) {
  return MakeStandardWorkload(volume, UpdateDistribution::kUniform,
                              /*scale=*/0.05, /*seed=*/42);
}

constexpr UsmWeights kWeights{1.0, 0.5, 1.0, 0.5};

EngineParams CachedEngine(int capacity, int64_t max_hit_udrop = -1) {
  EngineParams e;
  e.cache.capacity = capacity;
  e.cache.max_hit_udrop = max_hit_udrop;
  return e;
}

TEST(CacheEngineTest, CacheOffIsBitIdenticalToDefaultEngine) {
  // capacity=0 must take zero divergent branches: a run with the cache
  // struct explicitly zeroed equals a default-constructed EngineParams run,
  // bitwise, for every policy.
  auto w = StandardWorkload();
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EngineParams off;
  off.cache.capacity = 0;
  off.cache.max_hit_udrop = 5;  // ignored while disabled
  for (const char* policy : {"unit", "imu", "odu", "qmf"}) {
    auto a = RunExperiment(*w, {.policy = policy, .weights = kWeights});
    auto b = RunExperiment(
        *w, {.policy = policy, .weights = kWeights, .engine = off});
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->metrics.counts.submitted, b->metrics.counts.submitted);
    EXPECT_EQ(a->metrics.counts.success, b->metrics.counts.success);
    EXPECT_EQ(a->metrics.counts.rejected, b->metrics.counts.rejected);
    EXPECT_EQ(a->metrics.counts.dmf, b->metrics.counts.dmf);
    EXPECT_EQ(a->metrics.counts.dsf, b->metrics.counts.dsf);
    EXPECT_EQ(a->metrics.busy_s, b->metrics.busy_s);  // exact, not Near
    EXPECT_EQ(a->metrics.query_response_s.sum(),
              b->metrics.query_response_s.sum());
    EXPECT_EQ(a->usm, b->usm);
    EXPECT_EQ(b->metrics.cache_hits, 0);
    EXPECT_EQ(b->metrics.cache_misses, 0);
    EXPECT_EQ(b->metrics.cache_invalidations, 0);
    EXPECT_EQ(b->metrics.cache_stale_skips, 0);
  }
}

TEST(CacheEngineTest, CachedRunHitsAndConserves) {
  auto w = StandardWorkload();
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  auto off = RunExperiment(*w, {.policy = "unit", .weights = kWeights});
  auto on = RunExperiment(
      *w, {.policy = "unit", .weights = kWeights, .engine = CachedEngine(64)});
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  const RunMetrics& m = on->metrics;
  EXPECT_GT(m.cache_hits, 0) << "cache never hit on the standard workload";
  EXPECT_GT(m.cache_misses, 0);
  EXPECT_GT(m.cache_invalidations, 0) << "updates never invalidated entries";
  // Every query arrival that reached the cache took exactly one of the
  // three branches; arrivals shed before the check take none.
  EXPECT_LE(m.cache_hits + m.cache_misses + m.cache_stale_skips,
            m.counts.submitted);
  EXPECT_GT(m.cache_hits + m.cache_misses + m.cache_stale_skips, 0);
  // Hits resolve as successes, so success count can only grow.
  EXPECT_GE(m.counts.success, m.cache_hits);
  EXPECT_GE(m.counts.success, off->metrics.counts.success);
  EXPECT_EQ(m.counts.submitted, off->metrics.counts.submitted);
}

TEST(CacheEngineTest, UdropBoundForcesStaleSkips) {
  auto w = StandardWorkload(UpdateVolume::kHigh);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  auto loose = RunExperiment(*w,
                             {.policy = "unit", .weights = kWeights,
                              .engine = CachedEngine(64, -1)});
  auto strict = RunExperiment(*w,
                              {.policy = "unit", .weights = kWeights,
                               .engine = CachedEngine(64, 0)});
  ASSERT_TRUE(loose.ok()) << loose.status().ToString();
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  // With max_hit_udrop=0 only perfectly fresh read sets are served; the
  // rest of the covered arrivals become stale skips.
  EXPECT_GT(strict->metrics.cache_stale_skips, 0);
  EXPECT_LE(strict->metrics.cache_hits, loose->metrics.cache_hits);
}

TEST(CacheEngineTest, ReferenceModelAgreesWithCacheOn) {
  auto w = StandardWorkload();
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  for (const char* policy : {"unit", "qmf"}) {
    DiffCase c;
    c.workload = *w;
    c.policy = policy;
    c.weights = kWeights;
    c.engine.cache.capacity = 32;
    auto r = RunDiff(c);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->equivalent) << policy << ": "
                               << (r->divergences.empty()
                                       ? std::string("(no messages)")
                                       : r->divergences.front());
    EXPECT_GT(r->optimized.metrics.cache_hits, 0);
  }
}

TEST(CacheEngineTest, TracedCachedRunPassesEveryInvariant) {
  const std::string trace = ::testing::TempDir() + "/cache_engine.jsonl";
  auto w = StandardWorkload();
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ObsOptions obs;
  obs.trace_path = trace;
  auto r = RunExperiment(*w, {.policy = "unit",
                              .weights = kWeights,
                              .engine = CachedEngine(64),
                              .obs = obs});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto events = ReadTraceFile(trace);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  const TraceCheckResult check = CheckTrace(*events);
  EXPECT_TRUE(check.ok()) << TraceCheckSummary(check);
  // The invariant-8 staleness leg actually exercised something.
  EXPECT_GT(check.cache_hits, 0);
  EXPECT_GT(check.cache_invalidations, 0);
  EXPECT_EQ(check.cache_hits, r->metrics.cache_hits);
  EXPECT_EQ(check.cache_invalidations, r->metrics.cache_invalidations);
}

TEST(CacheEngineTest, ShardedRunMergesCacheCounters) {
  auto w = StandardWorkload();
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  auto mono = RunExperiment(*w, {.policy = "unit",
                                 .weights = kWeights,
                                 .engine = CachedEngine(32),
                                 .shards = 1,
                                 .jobs = 1});
  auto sharded = RunExperiment(*w, {.policy = "unit",
                                    .weights = kWeights,
                                    .engine = CachedEngine(32),
                                    .shards = 4,
                                    .jobs = 2});
  ASSERT_TRUE(mono.ok()) << mono.status().ToString();
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  // shards=1 is the identity, so its counters match the monolithic run.
  auto direct = RunExperiment(
      *w, {.policy = "unit", .weights = kWeights, .engine = CachedEngine(32)});
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(mono->metrics.cache_hits, direct->metrics.cache_hits);
  EXPECT_EQ(mono->metrics.cache_invalidations,
            direct->metrics.cache_invalidations);
  // Per-shard caches still hit; the merged view sums them.
  EXPECT_GT(sharded->metrics.cache_hits, 0);
  EXPECT_GT(sharded->metrics.cache_invalidations, 0);
}

}  // namespace
}  // namespace unitdb
