// Blast-radius isolation: a fault scenario whose items one shard owns must
// leave every other shard's run bit-identical to a fault-free run — shards
// share no state, so the only coupling would be a harness bug.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "unit/faults/schedule.h"
#include "unit/shard/router.h"
#include "unit/shard/sharded.h"
#include "unit/sim/experiment.h"

namespace unitdb {
namespace {

StatusOr<Workload> SmallWorkload() {
  return MakeStandardWorkload(UpdateVolume::kMedium,
                              UpdateDistribution::kUniform, /*scale=*/0.05,
                              /*seed=*/42);
}

void ExpectShardBitIdentical(const RunMetrics& a, const RunMetrics& b,
                             int shard) {
  EXPECT_EQ(a.counts.submitted, b.counts.submitted) << shard;
  EXPECT_EQ(a.counts.success, b.counts.success) << shard;
  EXPECT_EQ(a.counts.rejected, b.counts.rejected) << shard;
  EXPECT_EQ(a.counts.dmf, b.counts.dmf) << shard;
  EXPECT_EQ(a.counts.dsf, b.counts.dsf) << shard;
  EXPECT_EQ(a.busy_s, b.busy_s) << shard;
  EXPECT_EQ(a.events_processed, b.events_processed) << shard;
  EXPECT_EQ(a.preemptions, b.preemptions) << shard;
  EXPECT_EQ(a.lock_restarts, b.lock_restarts) << shard;
  EXPECT_EQ(a.update_commits, b.update_commits) << shard;
  EXPECT_EQ(a.query_response_s.sum(), b.query_response_s.sum()) << shard;
  EXPECT_EQ(a.query_freshness.sum(), b.query_freshness.sum()) << shard;
  EXPECT_EQ(a.fault_injected_queries, b.fault_injected_queries) << shard;
}

TEST(ShardFaultTest, ItemSelectorOnlyPerturbsTheOwningShard) {
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  ASSERT_FALSE(w->updates.empty());
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  const double dur_s = SimToSeconds(w->duration);
  const int kShards = 3;

  // An update outage pinned to one sourced item: only the shard owning the
  // item compiles a non-empty schedule; the others must run clean. At this
  // scale each source delivers only a few times (first at its phase), so
  // pick the earliest-phase source and cover the whole run to guarantee the
  // outage swallows a delivery.
  const auto earliest = std::min_element(
      w->updates.begin(), w->updates.end(),
      [](const ItemUpdateSpec& a, const ItemUpdateSpec& b) {
        return a.phase < b.phase;
      });
  ASSERT_LT(earliest->phase, w->duration);
  const ItemId item = earliest->item;
  const int owner = ShardRouter(kShards).ShardOf(item);

  ShardedParams clean;
  clean.shards = kShards;
  auto base = RunSharded(*w, "unit", weights, clean);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  FaultScenarioSpec scenario;
  scenario.name = "item-outage";
  scenario.seed = 7;
  FaultSpec f;
  f.kind = FaultKind::kUpdateOutage;
  f.start_s = 0.0;
  f.end_s = 0.99 * dur_s;
  f.items = std::to_string(item);
  scenario.faults.push_back(f);

  ShardedParams faulted = clean;
  faulted.scenario = &scenario;
  auto hit = RunSharded(*w, "unit", weights, faulted);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();

  for (int s = 0; s < kShards; ++s) {
    if (s == owner) continue;
    ExpectShardBitIdentical(base->per_shard[static_cast<size_t>(s)],
                            hit->per_shard[static_cast<size_t>(s)], s);
  }
  // The owning shard had that item's deliveries swallowed for most of the
  // run (outages suppress the freshness effect, not the update txns).
  EXPECT_GT(hit->per_shard[static_cast<size_t>(owner)].fault_suppressed_updates,
            0);
  EXPECT_EQ(base->per_shard[static_cast<size_t>(owner)]
                .fault_suppressed_updates,
            0);
}

TEST(ShardFaultTest, MultiTokenSelectorScopesAcrossShards) {
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  const double dur_s = SimToSeconds(w->duration);
  const int kShards = 2;
  const ShardRouter router(kShards);

  // Sourced items of the selector "1,4-6", counted per owning shard: the
  // selector must reach both shards.
  const std::vector<char> has_source = UpdateSourceMask(*w);
  std::vector<int> owned(kShards, 0);
  for (ItemId item : {1, 4, 5, 6}) {
    if (has_source[static_cast<size_t>(item)]) {
      ++owned[static_cast<size_t>(router.ShardOf(item))];
    }
  }
  ASSERT_GT(owned[0], 0);
  ASSERT_GT(owned[1], 0);

  FaultScenarioSpec scenario;
  scenario.name = "multi-token-burst";
  scenario.seed = 7;
  FaultSpec f;
  f.kind = FaultKind::kUpdateBurst;
  f.start_s = 0.2 * dur_s;
  f.end_s = 0.6 * dur_s;
  f.items = "1,4-6";
  f.rate_hz = 2.0;
  scenario.faults.push_back(f);

  ShardedParams p;
  p.shards = kShards;
  p.scenario = &scenario;
  auto hit = RunSharded(*w, "unit", weights, p);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  // Each shard bursts only the selected items it sources: rate x window
  // deliveries per item, give or take the one its phase may trim.
  const double per_item = f.rate_hz * (f.end_s - f.start_s);
  for (int s = 0; s < kShards; ++s) {
    const RunMetrics& m = hit->per_shard[static_cast<size_t>(s)];
    EXPECT_EQ(m.fault_edges, 2) << s;
    EXPECT_NEAR(static_cast<double>(m.fault_injected_updates),
                per_item * owned[static_cast<size_t>(s)],
                owned[static_cast<size_t>(s)] + 1.0)
        << s;
  }
}

TEST(ShardFaultTest, MalformedSelectorFailsNamingIt) {
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  const double dur_s = SimToSeconds(w->duration);
  FaultScenarioSpec scenario;
  scenario.name = "malformed";
  FaultSpec f;
  f.kind = FaultKind::kUpdateOutage;
  f.start_s = 0.2 * dur_s;
  f.end_s = 0.6 * dur_s;
  f.items = "3-x";
  scenario.faults.push_back(f);

  ShardedParams p;
  p.shards = 2;
  p.scenario = &scenario;
  auto run = RunSharded(*w, "unit", UsmWeights{1.0, 0.5, 1.0, 0.5}, p);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("'3-x'"), std::string::npos)
      << run.status().ToString();
}

TEST(ShardFaultTest, SingleShardScenarioMatchesMonolithicCompilation) {
  // At shards=1 the scenario is passed through verbatim, so the sharded
  // faulted run must equal the monolithic faulted run bit for bit.
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  const double dur_s = SimToSeconds(w->duration);

  FaultScenarioSpec scenario;
  scenario.name = "verbatim";
  scenario.seed = 11;
  FaultSpec f;
  f.kind = FaultKind::kServiceSlowdown;
  f.start_s = 0.2 * dur_s;
  f.end_s = 0.7 * dur_s;
  f.factor = 2.0;
  scenario.faults.push_back(f);

  auto mono = RunExperiment(*w, {.policy = "unit",
                                 .weights = weights,
                                 .scenario = scenario,
                                 .fault_seed = 42});
  ASSERT_TRUE(mono.ok()) << mono.status().ToString();

  ShardedParams p;
  p.shards = 1;
  p.scenario = &scenario;
  p.fault_seed = 42;
  auto sharded = RunSharded(*w, "unit", weights, p);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  EXPECT_EQ(mono->metrics.counts.success, sharded->metrics.counts.success);
  EXPECT_EQ(mono->metrics.counts.rejected, sharded->metrics.counts.rejected);
  EXPECT_EQ(mono->metrics.fault_injected_queries,
            sharded->metrics.fault_injected_queries);
  EXPECT_EQ(mono->metrics.busy_s, sharded->metrics.busy_s);
  EXPECT_EQ(mono->usm, sharded->usm);
}

TEST(ShardFaultTest, ShardedRequestCarriesItsScenario) {
  // RunExperiment hands a sharded request's scenario to the sharded runner,
  // which compiles it per shard: at shards=1 the run equals the monolithic
  // faulted request bit for bit, and at shards=2 the faults still fire.
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  const double dur_s = SimToSeconds(w->duration);
  FaultScenarioSpec scenario;
  scenario.name = "outage-and-step";
  FaultSpec outage;
  outage.kind = FaultKind::kUpdateOutage;
  outage.start_s = 0.2 * dur_s;
  outage.end_s = 0.5 * dur_s;
  outage.items = "*";
  scenario.faults.push_back(outage);
  FaultSpec step;
  step.kind = FaultKind::kLoadStep;
  step.start_s = 0.3 * dur_s;
  step.end_s = 0.6 * dur_s;
  step.rate_hz = 15;
  scenario.faults.push_back(step);

  RunRequest request{.policy = "unit",
                     .weights = {1.0, 0.5, 1.0, 0.5},
                     .scenario = scenario,
                     .obs = {.series = true}};
  auto mono = RunExperiment(*w, request);
  request.shards = 1;
  auto one = RunExperiment(*w, request);
  request.shards = 2;
  auto two = RunExperiment(*w, request);
  ASSERT_TRUE(mono.ok()) << mono.status().ToString();
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_TRUE(two.ok()) << two.status().ToString();

  EXPECT_GT(mono->metrics.fault_edges, 0);
  EXPECT_TRUE(mono->metrics == one->metrics);
  EXPECT_EQ(mono->usm, one->usm);
  ASSERT_TRUE(mono->disturbance.valid);
  EXPECT_EQ(mono->disturbance.dip_depth, one->disturbance.dip_depth);
  EXPECT_EQ(mono->disturbance.recover_s, one->disturbance.recover_s);
  EXPECT_GT(two->metrics.fault_edges, 0);
  EXPECT_GT(two->metrics.fault_injected_queries, 0);
}

}  // namespace
}  // namespace unitdb
