// Perf-tracking bench of whole-engine throughput: runs fixed med-unif and
// high-neg cells for each of the paper's four policies (plus a heavy-traffic
// med-unif cell that stresses the admission hot path) and emits
// BENCH_engine.json — events/sec, wall-clock, and peak ready-queue depth per
// cell — so CI can track engine performance across commits. The human-
// readable table goes to stdout; the JSON to `out=` (default
// BENCH_engine.json).
//
// Usage: bench_engine_throughput [scale=0.2] [seed=42] [reps=3]
//                                [out=BENCH_engine.json]
//   reps (>= 1) engine runs per cell; wall-clock is the fastest rep (the
//   usual min-of-N noise filter), events/sec derives from it.

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"
#include "unit/workload/query_trace.h"
#include "unit/workload/update_trace.h"

namespace unitdb {
namespace {

/// One named workload cell: a Table 1 update trace over the standard query
/// stream, optionally at a boosted arrival rate (the heavy-traffic regime).
StatusOr<Workload> MakeCell(UpdateVolume volume, UpdateDistribution dist,
                            double rate_hz, double scale, uint64_t seed) {
  QueryTraceParams qp;
  qp.seed = seed;
  qp.duration =
      static_cast<SimDuration>(static_cast<double>(qp.duration) * scale);
  qp.base_rate_hz = rate_hz;
  auto workload = GenerateQueryTrace(qp);
  if (!workload.ok()) return workload.status();
  UpdateTraceParams up;
  up.volume = volume;
  up.distribution = dist;
  up.seed = seed + 1;
  Status s = GenerateUpdateTrace(up, *workload);
  if (!s.ok()) return s;
  return workload;
}

Status Run(bench::Args& args) {
  const double scale = args.Double("scale", 0.2);
  const uint64_t seed = args.Int("seed", 42);
  const int reps = static_cast<int>(args.Int("reps", 3, 1));
  const std::string out = args.String("out", "BENCH_engine.json");
  if (Status s = args.Check(); !s.ok()) return s;
  const std::vector<std::string> policies = {"imu", "odu", "qmf", "unit"};
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};

  struct CellSpec {
    const char* name;
    UpdateVolume volume;
    UpdateDistribution dist;
    double rate_hz;
  };
  const CellSpec cells[] = {
      {"med-unif", UpdateVolume::kMedium, UpdateDistribution::kUniform, 5.0},
      {"high-neg", UpdateVolume::kHigh, UpdateDistribution::kNegative, 5.0},
      {"med-unif-heavy", UpdateVolume::kMedium, UpdateDistribution::kUniform,
       50.0},
  };

  std::cout << "=== Engine throughput (perf tracking) ===\n";
  TextTable table;
  table.SetHeader({"cell", "policy", "wall_s", "events/s", "peak_rq",
                   "cancelled", "live_peak"});
  std::vector<bench::JsonObject> results;
  const auto grid_t0 = std::chrono::steady_clock::now();
  for (const CellSpec& cell : cells) {
    auto w = MakeCell(cell.volume, cell.dist, cell.rate_hz, scale, seed);
    if (!w.ok()) return w.status();
    for (const std::string& policy : policies) {
      auto r = bench::FastestOf(reps, [&] {
        return RunExperiment(*w, {.policy = policy, .weights = weights});
      });
      if (!r.ok()) return r.status();
      const RunMetrics& m = r->value.metrics;
      const double events_per_sec =
          bench::PerSecond(m.events_processed, r->wall_s);
      results.push_back(bench::JsonObject()
                            .Add("cell", cell.name)
                            .Add("policy", policy)
                            .Add("wall_s", r->wall_s)
                            .Add("events_per_sec", events_per_sec)
                            .Add("events_processed", m.events_processed)
                            .Add("events_cancelled", m.events_cancelled)
                            .Add("peak_ready_depth", m.peak_ready_depth)
                            .Add("txn_live_peak", m.txn_live_peak)
                            .Add("txn_slots_created", m.txn_slots_created)
                            .Add("readset_spill", m.readset_spill)
                            .Add("usm", r->value.usm));
      table.AddRow({cell.name, policy, Fmt(r->wall_s, 4),
                    Fmt(events_per_sec, 0),
                    std::to_string(m.peak_ready_depth),
                    std::to_string(m.events_cancelled),
                    std::to_string(m.txn_live_peak)});
    }
  }
  const auto grid_t1 = std::chrono::steady_clock::now();
  table.Print(std::cout);
  std::cout << "bench wall-clock: "
            << Fmt(std::chrono::duration<double>(grid_t1 - grid_t0).count(), 3)
            << " s\n";
  return bench::WriteJson(
      out, "bench_engine_throughput",
      bench::JsonObject().Add("scale", scale).Add("seed", seed).Add("reps",
                                                                    reps),
      results, args);
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) {
  return unitdb::bench::Main(argc, argv, {"scale", "seed", "reps", "out"},
                             unitdb::Run);
}
