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
//   reps engine runs per cell; wall-clock is the fastest rep (the usual
//   min-of-N noise filter), events/sec derives from it.

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "unit/common/config.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"
#include "unit/workload/query_trace.h"
#include "unit/workload/update_trace.h"

namespace unitdb {
namespace {

struct CellResult {
  std::string cell;
  std::string policy;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  int64_t events_processed = 0;
  int64_t events_cancelled = 0;
  int64_t events_compacted = 0;
  int peak_ready_depth = 0;
  int64_t txn_live_peak = 0;
  int64_t txn_slots_created = 0;
  int64_t readset_spill = 0;
  double usm = 0.0;
};

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

StatusOr<CellResult> RunCell(const Workload& w, const std::string& cell,
                             const std::string& policy, int reps) {
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  CellResult out;
  out.cell = cell;
  out.policy = policy;
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    auto r = RunExperiment(w, policy, weights);
    const auto t1 = std::chrono::steady_clock::now();
    if (!r.ok()) return r.status();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    out.events_processed = r->metrics.events_processed;
    out.events_cancelled = r->metrics.events_cancelled;
    out.events_compacted = r->metrics.events_compacted;
    out.peak_ready_depth = r->metrics.peak_ready_depth;
    out.txn_live_peak = r->metrics.txn_live_peak;
    out.txn_slots_created = r->metrics.txn_slots_created;
    out.readset_spill = r->metrics.readset_spill;
    out.usm = r->usm;
  }
  out.wall_s = best;
  const int64_t retired = out.events_processed + out.events_compacted;
  out.events_per_sec = best > 0.0 ? static_cast<double>(retired) / best : 0.0;
  return out;
}

void WriteJson(const std::vector<CellResult>& results, double scale,
               uint64_t seed, int reps, const std::string& path) {
  std::ofstream f(path);
  f << "{\n";
  f << "  \"bench\": \"bench_engine_throughput\",\n";
  f << "  \"scale\": " << scale << ",\n";
  f << "  \"seed\": " << seed << ",\n";
  f << "  \"reps\": " << reps << ",\n";
  f << "  \"cells\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    f << "    {\"cell\": \"" << r.cell << "\", \"policy\": \"" << r.policy
      << "\", \"wall_s\": " << r.wall_s
      << ", \"events_per_sec\": " << r.events_per_sec
      << ", \"events_processed\": " << r.events_processed
      << ", \"events_cancelled\": " << r.events_cancelled
      << ", \"events_compacted\": " << r.events_compacted
      << ", \"peak_ready_depth\": " << r.peak_ready_depth
      << ", \"txn_live_peak\": " << r.txn_live_peak
      << ", \"txn_slots_created\": " << r.txn_slots_created
      << ", \"readset_spill\": " << r.readset_spill
      << ", \"usm\": " << r.usm << "}"
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
  if (Status s = config->ExpectKeys({"scale", "seed", "reps", "out"});
      !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  const double scale = config->GetDouble("scale", 0.2);
  const uint64_t seed = config->GetInt("seed", 42);
  const int reps = static_cast<int>(config->GetInt("reps", 3));
  const std::string out = config->GetString("out", "BENCH_engine.json");
  if (Status s = config->CheckNumbers(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  const std::vector<std::string> policies = {"imu", "odu", "qmf", "unit"};

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
                   "cancelled", "compacted", "live_peak"});
  std::vector<CellResult> results;
  const auto grid_t0 = std::chrono::steady_clock::now();
  for (const CellSpec& cell : cells) {
    auto w = MakeCell(cell.volume, cell.dist, cell.rate_hz, scale, seed);
    if (!w.ok()) {
      std::cerr << w.status().ToString() << "\n";
      return 1;
    }
    for (const std::string& policy : policies) {
      auto r = RunCell(*w, cell.name, policy, reps);
      if (!r.ok()) {
        std::cerr << r.status().ToString() << "\n";
        return 1;
      }
      results.push_back(*r);
      table.AddRow({r->cell, r->policy, Fmt(r->wall_s, 4),
                    Fmt(r->events_per_sec, 0),
                    std::to_string(r->peak_ready_depth),
                    std::to_string(r->events_cancelled),
                    std::to_string(r->events_compacted),
                    std::to_string(r->txn_live_peak)});
    }
  }
  const auto grid_t1 = std::chrono::steady_clock::now();
  table.Print(std::cout);
  std::cout << "bench wall-clock: "
            << Fmt(std::chrono::duration<double>(grid_t1 - grid_t0).count(), 3)
            << " s\n";
  WriteJson(results, scale, seed, reps, out);
  std::cout << "wrote " << out << "\n";
  return 0;
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) { return unitdb::Main(argc, argv); }
