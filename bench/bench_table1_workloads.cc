// Reproduces Table 1 of the paper: the nine update traces — {low, med,
// high} volume x {uniform, positive, negative} spatial distribution — with
// their total update counts and CPU utilizations, plus the achieved
// correlation against the query distribution (the paper targets |rho|=0.8).
//
// The nine generations are independent, so they fan out across FanOut's
// workers; rows come back in grid order, so the table is identical for any
// jobs count.
//
// Usage: bench_table1_workloads [scale=1.0] [seed=42] [jobs=0] [shard=0]
//        (jobs=0: one worker per hardware thread)
//   shard=N (N >= 1) appends an engine-run section: each trace executed
//   under the unit policy on the sharded multi-engine runner
//   (shard/sharded.h) with N shards, reporting parent-level outcomes and
//   USM. shard=0 (default) keeps the generation-only table byte-identical
//   to earlier revisions.

#include <chrono>
#include <iostream>
#include <vector>

#include "unit/common/config.h"
#include "unit/common/stats.h"
#include "unit/common/thread_pool.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"

namespace unitdb {
namespace {

int Main(int argc, char** argv) {
  auto config = Config::ParseArgs(argc, argv);
  if (!config.ok()) {
    std::cerr << config.status().ToString() << "\n";
    return 1;
  }
  if (Status s = config->ExpectKeys({"scale", "seed", "jobs", "shard",
                                     "shards"});
      !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  const double scale = config->GetDouble("scale", 1.0);
  const uint64_t seed = config->GetInt("seed", 42);
  const int jobs = ResolveJobs(static_cast<int>(config->GetInt("jobs", 0)));
  // `shards=` is the canonical spelling; `shard=` stays accepted.
  const int shard =
      static_cast<int>(config->GetInt("shards", config->GetInt("shard", 0)));
  if (Status s = config->CheckNumbers(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  std::cout << "=== Table 1: update traces ===\n"
            << "(paper: 6144 / 30000 / 61440 updates = 15% / 75% / 150% CPU;\n"
            << " correlated traces target |rho| = 0.8 vs the query "
               "distribution)\n\n";

  TextTable table;
  table.SetHeader({"trace", "total updates", "update util", "query util",
                   "spearman(upd,qry)", "items w/ source"});
  const UpdateVolume volumes[] = {UpdateVolume::kLow, UpdateVolume::kMedium,
                                  UpdateVolume::kHigh};
  const UpdateDistribution dists[] = {UpdateDistribution::kUniform,
                                      UpdateDistribution::kPositive,
                                      UpdateDistribution::kNegative};

  const auto start = std::chrono::steady_clock::now();
  // Distribution-major, then volume: the paper's row order.
  auto generated = FanOut(9, jobs, [&](int cell) {
    return MakeStandardWorkload(volumes[cell % 3], dists[cell / 3], scale,
                                seed);
  });
  if (!generated.ok()) {
    std::cerr << generated.status().ToString() << "\n";
    return 1;
  }
  for (size_t cell = 0; cell < generated->size(); ++cell) {
    const Workload& w = (*generated)[cell];
    auto accesses = w.QueryAccessCounts();
    auto updates = w.SourceUpdateCounts();
    std::vector<double> a(accesses.begin(), accesses.end());
    std::vector<double> u(updates.begin(), updates.end());
    table.AddRow({w.update_trace_name, std::to_string(w.TotalSourceUpdates()),
                  FmtPercent(w.UpdateUtilization()),
                  FmtPercent(w.QueryUtilization()),
                  Fmt(SpearmanCorrelation(u, a), 3),
                  std::to_string(w.updates.size())});
    if (cell % 3 == 2) table.AddSeparator();
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  table.Print(std::cout);
  std::cout << "grid wall-clock: " << Fmt(wall_s, 3) << " s (jobs=" << jobs
            << ")\n";

  // Optional engine-run section: each trace through the sharded runner,
  // parent-level (post-CrossShardJoin) accounting with the naive weighting.
  if (shard >= 1) {
    std::cout << "\n--- engine runs (unit policy, shard=" << shard
              << ", jobs=" << jobs << ") ---\n";
    TextTable runs;
    runs.SetHeader({"trace", "submitted", "success", "rejected", "dmf", "dsf",
                    "usm"});
    for (const Workload& w : *generated) {
      auto r = RunShardedExperiment(w, "unit", UsmWeights{}, shard, jobs);
      if (!r.ok()) {
        std::cerr << r.status().ToString() << "\n";
        return 1;
      }
      const OutcomeCounts& c = r->metrics.counts;
      runs.AddRow({r->trace, std::to_string(c.submitted),
                   std::to_string(c.success), std::to_string(c.rejected),
                   std::to_string(c.dmf), std::to_string(c.dsf),
                   Fmt(r->usm, 3)});
    }
    runs.Print(std::cout);
  }
  return 0;
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) { return unitdb::Main(argc, argv); }
