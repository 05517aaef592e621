#include "unit/sim/experiment.h"

#include <gtest/gtest.h>

#include <vector>

#include "unit/faults/schedule.h"
#include "unit/shard/sharded.h"
#include "unit/sim/server.h"

namespace unitdb {
namespace {

TEST(MakeStandardWorkloadTest, RejectsBadScale) {
  EXPECT_FALSE(MakeStandardWorkload(UpdateVolume::kLow,
                                    UpdateDistribution::kUniform, 0.0)
                   .ok());
  EXPECT_FALSE(MakeStandardWorkload(UpdateVolume::kLow,
                                    UpdateDistribution::kUniform, -1.0)
                   .ok());
}

TEST(MakeStandardWorkloadTest, ScaleShortensTheTrace) {
  auto full = MakeStandardWorkload(UpdateVolume::kLow,
                                   UpdateDistribution::kUniform, 0.2, 5);
  auto tenth = MakeStandardWorkload(UpdateVolume::kLow,
                                    UpdateDistribution::kUniform, 0.02, 5);
  ASSERT_TRUE(full.ok() && tenth.ok());
  EXPECT_EQ(full->duration, 10 * tenth->duration);
  EXPECT_GT(full->queries.size(), tenth->queries.size());
}

TEST(MakeStandardWorkloadTest, NamesTheTrace) {
  auto w = MakeStandardWorkload(UpdateVolume::kHigh,
                                UpdateDistribution::kPositive, 0.05, 5);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->update_trace_name, "high-pos");
  EXPECT_EQ(w->query_trace_name, "cello-like");
}

// One replicated cell: a RunGrid over one trace, one policy and one variant
// that runs `policy` under the naive weighting and `engine`.
StatusOr<GridCellResult> ReplicatedCell(UpdateVolume volume,
                                        UpdateDistribution distribution,
                                        const std::string& policy,
                                        int replications, double scale,
                                        const EngineParams& engine = {}) {
  GridSpec spec;
  spec.volumes = {volume};
  spec.distributions = {distribution};
  spec.policies = {policy};
  spec.variants = {{"naive", {.engine = engine}}};
  spec.replications = replications;
  spec.scale = scale;
  auto grid = RunGrid(spec);
  if (!grid.ok()) return grid.status();
  return grid->front();
}

TEST(RunReplicatedTest, AggregatesSeveralSeeds) {
  auto cell = ReplicatedCell(UpdateVolume::kLow, UpdateDistribution::kUniform,
                             "imu", /*replications=*/3, /*scale=*/0.05);
  ASSERT_TRUE(cell.ok());
  const ReplicatedResult* r = &cell->result;
  EXPECT_EQ(r->replications, 3);
  EXPECT_EQ(r->usm.count(), 3);
  EXPECT_EQ(r->trace, "low-unif");
  EXPECT_EQ(r->policy, "imu");
  EXPECT_GT(r->usm.mean(), 0.0);
  EXPECT_LE(r->usm.max(), 1.0);
  // Different seeds => (almost surely) different workloads => spread.
  EXPECT_GT(r->usm.max() - r->usm.min(), 0.0);
  // Ratio means stay consistent with each other.
  EXPECT_NEAR(r->success_ratio.mean() + r->rejection_ratio.mean() +
                  r->dmf_ratio.mean() + r->dsf_ratio.mean(),
              1.0, 1e-9);
  // The cell keeps every run, in the order the aggregate folded them.
  ASSERT_EQ(cell->runs.size(), 3u);
  double sum = 0.0;
  for (const ExperimentResult& run : cell->runs) sum += run.usm;
  EXPECT_EQ(sum, r->usm.sum());
}

TEST(RunReplicatedTest, RejectsBadInputs) {
  EXPECT_FALSE(ReplicatedCell(UpdateVolume::kLow,
                              UpdateDistribution::kUniform, "imu", 0, 0.05)
                   .ok());
  EXPECT_FALSE(ReplicatedCell(UpdateVolume::kLow,
                              UpdateDistribution::kUniform, "no-such-policy",
                              1, 0.05)
                   .ok());
}

TEST(RunReplicatedTest, EngineParamsPropagate) {
  EngineParams fcfs;
  fcfs.discipline = QueueDiscipline::kFcfs;
  auto edf = ReplicatedCell(UpdateVolume::kMedium,
                            UpdateDistribution::kUniform, "imu", 2, 0.1);
  auto fcfs_r = ReplicatedCell(UpdateVolume::kMedium,
                               UpdateDistribution::kUniform, "imu", 2, 0.1,
                               fcfs);
  ASSERT_TRUE(edf.ok() && fcfs_r.ok());
  // Firm deadlines + overload: EDF completes at least as much as FCFS.
  EXPECT_GE(edf->result.usm.mean(), fcfs_r->result.usm.mean());
}

TEST(RunExperimentTest, KeepsTheRequestedTraceEventsInMemory) {
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 0.02, 42);
  ASSERT_TRUE(w.ok());
  RunRequest request{.policy = "imu"};
  request.obs.events = {TraceEventType::kCommit, TraceEventType::kReject};
  auto r = RunExperiment(*w, request);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  int64_t commits = 0;
  for (const TraceEvent& e : r->events) {
    ASSERT_TRUE(e.type == TraceEventType::kCommit ||
                e.type == TraceEventType::kReject);
    commits += e.type == TraceEventType::kCommit ? 1 : 0;
  }
  EXPECT_GT(commits, 0);
  EXPECT_LT(static_cast<int64_t>(r->events.size()),
            r->metrics.events_processed);
  // Keeping events changes nothing about the run itself.
  auto plain = RunExperiment(*w, {.policy = "imu"});
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->metrics.counts, r->metrics.counts);
  EXPECT_EQ(plain->metrics.busy_s, r->metrics.busy_s);
}

TEST(RunExperimentTest, RejectsWhatItsPathCannotHonour) {
  auto w = MakeStandardWorkload(UpdateVolume::kLow,
                                UpdateDistribution::kUniform, 0.02, 42);
  ASSERT_TRUE(w.ok());
  FaultSchedule schedule;
  EngineParams attached;
  attached.faults = &schedule;
  const std::vector<RunRequest> bad = {
      // The sharded runner writes its own per-shard traces.
      {.shards = 2, .obs = {.trace_path = "run.jsonl"}},
      {.shards = 1, .obs = {.series_csv_path = "series.csv"}},
      {.shards = 2, .obs = {.events = {TraceEventType::kCommit}}},
      // It compiles faults per shard, so it takes no attached schedule.
      {.engine = attached, .shards = 2},
      // Faults come from the scenario or the engine pointer, not both.
      {.engine = attached, .scenario = FaultScenarioSpec{}},
  };
  for (const RunRequest& request : bad) {
    auto r = RunExperiment(*w, request);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }
}

// A 4-item workload with three update sources, whose second source the
// database refuses when `second` is item 1 (a duplicate) or item 4 (past
// the end of the item array).
Workload RefusedSpecs(ItemId second) {
  Workload w;
  w.num_items = 4;
  w.duration = SecondsToSim(10.0);
  for (const ItemId item : {ItemId{1}, second, ItemId{2}}) {
    ItemUpdateSpec u;
    u.item = item;
    u.ideal_period = SecondsToSim(1.0);
    u.update_exec = MillisToSim(10.0);
    w.updates.push_back(u);
  }
  QueryRequest q;
  q.id = 0;
  q.arrival = SecondsToSim(1.0);
  q.exec = MillisToSim(10.0);
  q.relative_deadline = SecondsToSim(1.0);
  q.items = {2};
  w.queries.push_back(q);
  return w;
}

TEST(RunExperimentTest, UpdateSpecsTheDatabaseRefusesFailTheRun) {
  const struct {
    Workload workload;
    Status want;
  } cases[] = {
      {RefusedSpecs(1),
       Status::AlreadyExists("duplicate update spec for item 1")},
      {RefusedSpecs(4), Status::OutOfRange("item id 4 outside [0, 4)")},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.want.ToString());
    auto server = Server::Create(c.workload, {});
    ASSERT_FALSE(server.ok());
    EXPECT_EQ(server.status().ToString(), c.want.ToString());
    // Monolithic, and sharded: the refused spec lands on one shard.
    for (const int shards : {0, 1, 2, 3}) {
      auto run = RunExperiment(c.workload, {.policy = "imu", .shards = shards});
      ASSERT_FALSE(run.ok()) << "shards=" << shards;
      EXPECT_EQ(run.status().ToString(), c.want.ToString())
          << "shards=" << shards;
    }
    for (const bool reference : {false, true}) {
      ShardedParams params;
      params.shards = 2;
      params.reference_engines = reference;
      auto sharded = RunSharded(c.workload, "imu", {}, params);
      ASSERT_FALSE(sharded.ok()) << "reference=" << reference;
      EXPECT_EQ(sharded.status().ToString(), c.want.ToString())
          << "reference=" << reference;
    }
  }
  // With its second source on item 3 instead, the workload runs.
  Workload fine = RefusedSpecs(3);
  ASSERT_TRUE(Server::Create(fine, {}).ok());
  EXPECT_TRUE(RunExperiment(fine, {.shards = 2}).ok());
}

TEST(RunGridTest, RejectsAVariantThatNamesAFile) {
  // Every replication of the cell would write the same file.
  GridSpec spec;
  spec.volumes = {UpdateVolume::kLow};
  spec.distributions = {UpdateDistribution::kUniform};
  spec.scale = 0.02;
  spec.variants = {{"traced", {.obs = {.trace_path = "cell.jsonl"}}}};
  auto grid = RunGrid(spec);
  ASSERT_FALSE(grid.ok());
  EXPECT_EQ(grid.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunGridTest, VariantPolicyOptionsPropagate) {
  // "unit" with admission control switched off in the variant's options is
  // exactly the "unit-noac" ablation.
  GridSpec spec;
  spec.volumes = {UpdateVolume::kMedium};
  spec.distributions = {UpdateDistribution::kNegative};
  spec.policies = {"unit"};
  spec.scale = 0.05;
  GridVariant noac{"noac", {}};
  noac.request.options.unit.enable_admission_control = false;
  spec.variants = {noac};
  auto via_options = RunGrid(spec);
  spec.policies = {"unit-noac"};
  spec.variants = {};
  auto via_name = RunGrid(spec);
  ASSERT_TRUE(via_options.ok() && via_name.ok());
  EXPECT_EQ(via_options->front().variant, "noac");
  EXPECT_EQ(via_name->front().variant, "naive");
  EXPECT_EQ(via_options->front().runs[0].metrics,
            via_name->front().runs[0].metrics);
}

}  // namespace
}  // namespace unitdb
