// Perf-tracking bench of the sharded multi-engine runner: sweeps shard count
// {1, 2, 4, 8} x arrival rate over a fixed workload, runs each cell with
// jobs=shards (one worker per shard), and emits BENCH_shard.json with
// wall-clock, aggregate events/sec, the parent-level outcome counts, and the
// cross-shard split volume per cell. Two properties under test:
//
//   * Throughput scaling: aggregate events/sec must not fall off a cliff as
//     shards grow — on a multi-core box it grows with shard count; on a
//     single core it stays near-flat (partitioning adds only O(queries)
//     split/join work). The CI gate (compare_bench.py) only checks for
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
//   reps    sharded runs per cell; wall-clock is the fastest rep

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "unit/common/config.h"
#include "unit/shard/sharded.h"
#include "unit/sim/report.h"
#include "unit/workload/query_trace.h"
#include "unit/workload/update_trace.h"

namespace unitdb {
namespace {

struct CellResult {
  std::string cell;
  int shards = 1;
  int jobs = 1;
  double rate_hz = 0.0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  int64_t events_processed = 0;
  int64_t submitted = 0;
  int64_t success = 0;
  double usm = 0.0;
  int64_t cross_shard_queries = 0;
  int64_t subqueries = 0;
  int64_t txn_live_peak = 0;
};

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

StatusOr<CellResult> RunCell(const Workload& w, const std::string& cell,
                             const std::string& policy, int shards, int jobs,
                             int reps) {
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  ShardedParams params;
  params.shards = shards;
  params.jobs = jobs;
  CellResult out;
  out.cell = cell;
  out.shards = shards;
  out.jobs = jobs;
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    auto r = RunSharded(w, policy, weights, params);
    const auto t1 = std::chrono::steady_clock::now();
    if (!r.ok()) return r.status();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    out.events_processed = r->metrics.events_processed;
    out.submitted = r->metrics.counts.submitted;
    out.success = r->metrics.counts.success;
    out.usm = r->usm;
    out.cross_shard_queries = r->cross_shard_queries;
    out.subqueries = r->subqueries;
    out.txn_live_peak = r->metrics.txn_live_peak;
  }
  out.wall_s = best;
  out.events_per_sec =
      best > 0.0 ? static_cast<double>(out.events_processed) / best : 0.0;
  return out;
}

void WriteJson(const std::vector<CellResult>& results, double scale,
               double rate, uint64_t seed, int reps,
               const std::string& policy, const std::string& path) {
  std::ofstream f(path);
  f << "{\n";
  f << "  \"bench\": \"bench_shard_scaling\",\n";
  f << "  \"scale\": " << scale << ",\n";
  f << "  \"rate\": " << rate << ",\n";
  f << "  \"seed\": " << seed << ",\n";
  f << "  \"reps\": " << reps << ",\n";
  f << "  \"policy\": \"" << policy << "\",\n";
  f << "  \"cells\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    f << "    {\"cell\": \"" << r.cell << "\", \"shards\": " << r.shards
      << ", \"jobs\": " << r.jobs << ", \"rate_hz\": " << r.rate_hz
      << ", \"wall_s\": " << r.wall_s
      << ", \"events_per_sec\": " << r.events_per_sec
      << ", \"events_processed\": " << r.events_processed
      << ", \"submitted\": " << r.submitted << ", \"success\": " << r.success
      << ", \"usm\": " << r.usm
      << ", \"cross_shard_queries\": " << r.cross_shard_queries
      << ", \"subqueries\": " << r.subqueries
      << ", \"txn_live_peak\": " << r.txn_live_peak << "}"
      << (i + 1 < results.size() ? "," : "") << "\n";
  }
  f << "  ]\n";
  f << "}\n";
}

int Main(int argc, char** argv) {
  auto config = Config::ParseArgs(argc, argv);
  if (!config.ok()) {
    std::cerr << config.status().ToString() << "\n";
    return 1;
  }
  if (Status s = config->ExpectKeys(
          {"scale", "rate", "seed", "reps", "policy", "jobs", "out"});
      !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  const double scale = config->GetDouble("scale", 1.0);
  const double rate = config->GetDouble("rate", 20.0);
  const uint64_t seed = config->GetInt("seed", 42);
  const int reps = static_cast<int>(config->GetInt("reps", 2));
  const std::string policy = config->GetString("policy", "unit");
  const int jobs_override = static_cast<int>(config->GetInt("jobs", 0));
  const std::string out = config->GetString("out", "BENCH_shard.json");
  if (Status s = config->CheckNumbers(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  const double base_s = 120.0 * scale;

  const int shard_counts[] = {1, 2, 4, 8};
  const double rates[] = {rate, 4.0 * rate};

  std::cout << "=== Shard scaling (shards x arrival rate, jobs=shards) ===\n";
  TextTable table;
  table.SetHeader({"cell", "shards", "jobs", "rate", "wall_s", "events/s",
                   "submitted", "xshard", "subq", "usm"});
  std::vector<CellResult> results;
  for (const double rr : rates) {
    // One workload per rate row, shared across shard counts: the sweep
    // varies only the partitioning, so events/sec deltas are pure runner
    // overhead/parallelism.
    auto w = MakeWorkload(base_s, rr, seed);
    if (!w.ok()) {
      std::cerr << w.status().ToString() << "\n";
      return 1;
    }
    for (const int shards : shard_counts) {
      const int jobs = jobs_override > 0 ? jobs_override : shards;
      std::string cell = "sh";
      cell += std::to_string(shards);
      cell += "-r";
      cell += Fmt(rr, 0);
      auto r = RunCell(*w, cell, policy, shards, jobs, reps);
      if (!r.ok()) {
        std::cerr << r.status().ToString() << "\n";
        return 1;
      }
      r->rate_hz = rr;
      results.push_back(*r);
      table.AddRow({r->cell, std::to_string(r->shards),
                    std::to_string(r->jobs), Fmt(rr, 0), Fmt(r->wall_s, 4),
                    Fmt(r->events_per_sec, 0), std::to_string(r->submitted),
                    std::to_string(r->cross_shard_queries),
                    std::to_string(r->subqueries), Fmt(r->usm, 4)});
    }
  }
  table.Print(std::cout);

  // Context line for the scaling claim: aggregate events/sec of the widest
  // cell vs the single-shard control, per rate row.
  for (size_t row = 0; row < 2; ++row) {
    const CellResult& one = results[row * 4];
    const CellResult& wide = results[row * 4 + 3];
    const double ratio = one.events_per_sec > 0.0
                             ? wide.events_per_sec / one.events_per_sec
                             : 0.0;
    std::cout << "rate " << Fmt(one.rate_hz, 0) << ": sh8/sh1 events/sec = "
              << Fmt(ratio, 2) << "x (" << Fmt(one.events_per_sec, 0)
              << " -> " << Fmt(wide.events_per_sec, 0) << ")\n";
  }
  WriteJson(results, scale, rate, seed, reps, policy, out);
  std::cout << "wrote " << out << "\n";
  return 0;
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) { return unitdb::Main(argc, argv); }
