#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "unit/shard/sharded.h"
#include "unit/sim/experiment.h"

namespace unitdb {
namespace {

StatusOr<Workload> SmallWorkload() {
  return MakeStandardWorkload(UpdateVolume::kMedium,
                              UpdateDistribution::kUniform, /*scale=*/0.05,
                              /*seed=*/42);
}

std::string Slurp(const std::filesystem::path& p) {
  std::ifstream f(p, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

// Every merged and per-shard metric, plus the full window series. Equality
// on doubles is exact — the determinism contract is bit-identical, not
// approximately equal.
void ExpectIdentical(const ShardedResult& a, const ShardedResult& b,
                     int jobs) {
  EXPECT_TRUE(a.metrics == b.metrics) << jobs;
  EXPECT_TRUE(a.per_shard == b.per_shard) << jobs;
  EXPECT_EQ(a.usm, b.usm) << jobs;
  EXPECT_EQ(a.cross_shard_queries, b.cross_shard_queries) << jobs;
  EXPECT_EQ(a.subqueries, b.subqueries) << jobs;

  ASSERT_EQ(a.queries.size(), b.queries.size()) << jobs;
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].trace_id, b.queries[i].trace_id) << jobs;
    EXPECT_EQ(a.queries[i].outcome, b.queries[i].outcome) << jobs;
    EXPECT_EQ(a.queries[i].observed_freshness, b.queries[i].observed_freshness)
        << jobs;
    EXPECT_EQ(a.queries[i].resolve_time, b.queries[i].resolve_time) << jobs;
  }

  ASSERT_EQ(a.merged_series.size(), b.merged_series.size()) << jobs;
  for (size_t i = 0; i < a.merged_series.size(); ++i) {
    const WindowSample& x = a.merged_series[i];
    const WindowSample& y = b.merged_series[i];
    EXPECT_EQ(x.t_s, y.t_s) << jobs;
    EXPECT_EQ(x.window.success, y.window.success) << jobs;
    EXPECT_EQ(x.utilization, y.utilization) << jobs;
    EXPECT_EQ(x.udrop_max, y.udrop_max) << jobs;
    if (std::isnan(x.admission_knob)) {
      EXPECT_TRUE(std::isnan(y.admission_knob)) << jobs;
    } else {
      EXPECT_EQ(x.admission_knob, y.admission_knob) << jobs;
    }
  }
}

TEST(ShardedDeterminismTest, JobsCountNeverChangesMergedMetricsOrTraces) {
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  const std::filesystem::path root =
      std::filesystem::path(testing::TempDir()) / "shard_jobs_invariance";

  ShardedParams base;
  base.shards = 4;
  base.record_series = true;

  // jobs=1 is the sequential reference; 2/4/8 exercise fewer, equal, and
  // more workers than shards.
  ShardedParams ref = base;
  ref.jobs = 1;
  ref.trace_dir = (root / "jobs1").string();
  auto r1 = RunSharded(*w, "unit", weights, ref);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();

  for (int jobs : {2, 4, 8}) {
    ShardedParams p = base;
    p.jobs = jobs;
    p.trace_dir = (root / ("jobs" + std::to_string(jobs))).string();
    auto r = RunSharded(*w, "unit", weights, p);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectIdentical(*r1, *r, jobs);

    // The shard-tagged trace files — per shard and the merged global view —
    // must be byte-identical too.
    for (int s = 0; s < 4; ++s) {
      const std::string name = "shard" + std::to_string(s) + ".jsonl";
      const std::string want = Slurp(std::filesystem::path(ref.trace_dir) /
                                     name);
      const std::string got =
          Slurp(std::filesystem::path(p.trace_dir) / name);
      ASSERT_FALSE(want.empty());
      EXPECT_EQ(want, got) << name << " jobs=" << jobs;
    }
    const std::string merged_want =
        Slurp(std::filesystem::path(ref.trace_dir) / "merged.jsonl");
    const std::string merged_got =
        Slurp(std::filesystem::path(p.trace_dir) / "merged.jsonl");
    ASSERT_FALSE(merged_want.empty());
    EXPECT_EQ(merged_want, merged_got) << "merged.jsonl jobs=" << jobs;
  }
  std::filesystem::remove_all(root);
}

TEST(ShardedDeterminismTest, RepeatedRunsAreReproducible) {
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  ShardedParams p;
  p.shards = 3;
  p.jobs = 3;
  p.record_series = true;
  auto a = RunSharded(*w, "unit", weights, p);
  auto b = RunSharded(*w, "unit", weights, p);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectIdentical(*a, *b, /*jobs=*/3);
}

TEST(ShardedDeterminismTest, MergedTraceInterleavesEveryShardTimeOrdered) {
  auto w = SmallWorkload();
  ASSERT_TRUE(w.ok());
  const std::filesystem::path root =
      std::filesystem::path(testing::TempDir()) / "shard_merged_trace";
  ShardedParams p;
  p.shards = 2;
  p.trace_dir = root.string();
  auto r = RunSharded(*w, "unit", UsmWeights{1.0, 0.5, 1.0, 0.5}, p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  std::ifstream merged(root / "merged.jsonl");
  ASSERT_TRUE(merged.good());
  std::string line;
  double last_t = -1.0;
  bool saw_shard[2] = {false, false};
  int64_t lines = 0;
  while (std::getline(merged, line)) {
    ++lines;
    // Every merged event carries its shard tag.
    const auto pos = line.find("\"shard\":");
    ASSERT_NE(pos, std::string::npos) << line;
    const int shard = std::stoi(line.substr(pos + 8));
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 2);
    saw_shard[shard] = true;
    const auto tpos = line.find("\"t\":");
    ASSERT_NE(tpos, std::string::npos) << line;
    const double t = std::stod(line.substr(tpos + 4));
    EXPECT_GE(t, last_t) << "merged trace not time-sorted: " << line;
    last_t = t;
  }
  EXPECT_GT(lines, 0);
  EXPECT_TRUE(saw_shard[0]);
  EXPECT_TRUE(saw_shard[1]);
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace unitdb
