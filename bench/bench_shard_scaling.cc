// Perf-tracking bench of the sharded multi-engine runner: sweeps shard count
// {1, 2, 4, 8} x arrival rate over a fixed workload, runs each cell with
// jobs=shards (one worker per shard), and emits BENCH_shard.json with
// wall-clock, aggregate events/sec, the parent-level outcome counts, and the
// cross-shard split volume per cell. Two properties under test:
//
//   * Throughput scaling: aggregate events/sec must not fall off a cliff as
//     shards grow — on a multi-core box it grows with shard count; on a
//     single core it stays near-flat. Partitioning is one counting pass
//     over the trace; each shard's sub-trace is a view that re-reads the
//     whole parent (O(shards x queries) cursor steps, run inside the
//     parallel shard runs), and the join is one ordered merge over the
//     resolved sub-queries. The CI gate (compare_bench.py) only checks for
//     drops, so a core-starved runner still passes.
//   * Partitioning overhead stays bounded: the sharded runner at shards=1
//     must be within noise of the monolithic engine (the sh1 row doubles as
//     that control — it runs the full partition/join path over one shard).
//
// Usage: bench_shard_scaling [scale=1.0] [rate=20] [seed=42] [reps=2]
//                            [policy=unit] [jobs=0] [out=BENCH_shard.json]
//   scale   multiplies the 120 s base horizon (CI runs scale=0.1)
//   rate    arrival rate of the low-rate row, Hz (the high row runs at 4x)
//   jobs    worker threads per cell; 0 = one per shard
//   reps    sharded runs per cell (>= 1); wall-clock is the fastest rep

#include <iostream>
#include <string>
#include <vector>

#include "harness.h"
#include "unit/shard/sharded.h"
#include "unit/sim/report.h"
#include "unit/workload/query_trace.h"
#include "unit/workload/update_trace.h"

namespace unitdb {
namespace {

StatusOr<Workload> MakeWorkload(double duration_s, double rate_hz,
                                uint64_t seed) {
  QueryTraceParams qp;
  qp.seed = seed;
  qp.duration = SecondsToSim(duration_s);
  qp.base_rate_hz = rate_hz;
  // Stationary Poisson arrivals: cell-to-cell wall-clock then tracks shard
  // overhead, not which slice of a flash crowd a shard happened to own.
  qp.burst_rate_multiplier = 1.0;
  qp.deadline_hi_factor = 3.0;
  auto workload = GenerateQueryTrace(qp);
  if (!workload.ok()) return workload.status();
  UpdateTraceParams up;
  up.volume = UpdateVolume::kMedium;
  up.seed = seed + 1;
  Status s = GenerateUpdateTrace(up, *workload);
  if (!s.ok()) return s;
  return workload;
}

Status Run(bench::Args& args) {
  const double scale = args.Double("scale", 1.0);
  const double rate = args.Double("rate", 20.0);
  const uint64_t seed = args.Int("seed", 42);
  const int reps = static_cast<int>(args.Int("reps", 2, 1));
  const std::string policy = args.String("policy", "unit");
  const int jobs_override = static_cast<int>(args.Int("jobs", 0, 0));
  const std::string out = args.String("out", "BENCH_shard.json");
  if (Status s = args.Check(); !s.ok()) return s;
  const double base_s = 120.0 * scale;
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};

  const int shard_counts[] = {1, 2, 4, 8};
  const double rates[] = {rate, 4.0 * rate};

  std::cout << "=== Shard scaling (shards x arrival rate, jobs=shards) ===\n";
  TextTable table;
  table.SetHeader({"cell", "shards", "jobs", "rate", "wall_s", "events/s",
                   "submitted", "xshard", "subq", "usm"});
  std::vector<bench::JsonObject> results;
  std::vector<double> events_per_sec;
  for (const double rr : rates) {
    // One workload per rate row, shared across shard counts: the sweep
    // varies only the partitioning, so events/sec deltas are pure runner
    // overhead/parallelism.
    auto w = MakeWorkload(base_s, rr, seed);
    if (!w.ok()) return w.status();
    for (const int shards : shard_counts) {
      ShardedParams params;
      params.shards = shards;
      params.jobs = jobs_override > 0 ? jobs_override : shards;
      const std::string cell =
          "sh" + std::to_string(shards) + "-r" + Fmt(rr, 0);
      auto r = bench::FastestOf(
          reps, [&] { return RunSharded(*w, policy, weights, params); });
      if (!r.ok()) return r.status();
      const ShardedResult& s = r->value;
      events_per_sec.push_back(
          bench::PerSecond(s.metrics.events_processed, r->wall_s));
      results.push_back(bench::JsonObject()
                            .Add("cell", cell)
                            .Add("shards", shards)
                            .Add("jobs", params.jobs)
                            .Add("rate_hz", rr)
                            .Add("wall_s", r->wall_s)
                            .Add("events_per_sec", events_per_sec.back())
                            .Add("events_processed", s.metrics.events_processed)
                            .Add("submitted", s.metrics.counts.submitted)
                            .Add("success", s.metrics.counts.success)
                            .Add("usm", s.usm)
                            .Add("cross_shard_queries", s.cross_shard_queries)
                            .Add("subqueries", s.subqueries)
                            .Add("txn_live_peak", s.metrics.txn_live_peak));
      table.AddRow({cell, std::to_string(shards), std::to_string(params.jobs),
                    Fmt(rr, 0), Fmt(r->wall_s, 4),
                    Fmt(events_per_sec.back(), 0),
                    std::to_string(s.metrics.counts.submitted),
                    std::to_string(s.cross_shard_queries),
                    std::to_string(s.subqueries), Fmt(s.usm, 4)});
    }
  }
  table.Print(std::cout);

  // Context line for the scaling claim: aggregate events/sec of the widest
  // cell vs the single-shard control, per rate row.
  for (size_t row = 0; row < 2; ++row) {
    const double one = events_per_sec[row * 4];
    const double wide = events_per_sec[row * 4 + 3];
    std::cout << "rate " << Fmt(rates[row], 0) << ": sh8/sh1 events/sec = "
              << Fmt(one > 0.0 ? wide / one : 0.0, 2) << "x ("
              << Fmt(one, 0) << " -> " << Fmt(wide, 0) << ")\n";
  }
  return bench::WriteJson(out, "bench_shard_scaling",
                          bench::JsonObject()
                              .Add("scale", scale)
                              .Add("rate", rate)
                              .Add("seed", seed)
                              .Add("reps", reps)
                              .Add("policy", policy),
                          results, args);
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) {
  return unitdb::bench::Main(
      argc, argv, {"scale", "rate", "seed", "reps", "policy", "jobs", "out"},
      unitdb::Run);
}
