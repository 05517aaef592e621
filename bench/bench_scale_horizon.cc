// Perf-tracking bench of the memory-flat hot path: sweeps run horizon
// (1x/3x/10x duration) x arrival rate over STREAMED workloads — queries are
// generated on demand by workload/query_source.h, never materialized — and
// emits BENCH_scale.json with wall-clock, events/sec, queries submitted, and
// the transaction-slab footprint per cell. The property under test: peak
// live slots (= slots_created = the arena's whole memory footprint) stays
// flat as the horizon grows 10x, because the slab recycles and the stream
// holds only one staged query. A materialized control run of the smallest
// cell runs the same engine path over a cursor on the generated vector, so
// it prices generating queries on demand against reading them from memory.
//
// Usage: bench_scale_horizon [base_s=120] [rate=20] [seed=42] [reps=2]
//                            [policy=unit] [out=BENCH_scale.json]
//   base_s  duration of the 1x cell, seconds of simulated time
//   rate    normal-state arrival rate of the low-rate row (the high-rate
//           row runs at 4x this)
//   reps    engine runs per cell; wall-clock is the fastest rep

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "unit/common/config.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"
#include "unit/workload/query_source.h"
#include "unit/workload/query_trace.h"
#include "unit/workload/update_trace.h"

namespace unitdb {
namespace {

struct CellResult {
  std::string cell;
  double duration_s = 0.0;
  double rate_hz = 0.0;
  bool streamed = true;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  int64_t events_processed = 0;
  int64_t submitted = 0;
  int64_t txn_live_peak = 0;
  int64_t txn_slots_created = 0;
  int64_t txn_released = 0;
  int64_t readset_inline = 0;
  int64_t readset_spill = 0;
};

StatusOr<Workload> MakeCell(double duration_s, double rate_hz, uint64_t seed,
                            bool streamed, bool bursty) {
  QueryTraceParams qp;
  qp.seed = seed;
  qp.duration = SecondsToSim(duration_s);
  qp.base_rate_hz = rate_hz;
  if (!bursty) {
    // Stationary Poisson arrivals with a bounded deadline tail: live
    // concurrency is set by rate x lifetime, not by flash-crowd or
    // long-deadline extremes, so the slab's peak saturates within the 1x
    // horizon and stays flat through 10x.
    qp.burst_rate_multiplier = 1.0;
    qp.deadline_hi_factor = 3.0;
  }
  auto workload =
      streamed ? MakeStreamingWorkload(qp) : GenerateQueryTrace(qp);
  if (!workload.ok()) return workload.status();
  UpdateTraceParams up;
  // Low update volume keeps the flat cells stable (total demand < 1): in a
  // saturated system live work legitimately accumulates, which would
  // confound the memory-flatness reading.
  up.volume = bursty ? UpdateVolume::kMedium : UpdateVolume::kLow;
  up.seed = seed + 1;
  Status s = GenerateUpdateTrace(up, *workload);
  if (!s.ok()) return s;
  return workload;
}

StatusOr<CellResult> RunCell(const Workload& w, const std::string& cell,
                             const std::string& policy, int reps,
                             bool streamed) {
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  CellResult out;
  out.cell = cell;
  out.duration_s = SimToSeconds(w.duration);
  out.streamed = streamed;
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    auto r = RunExperiment(w, policy, weights);
    const auto t1 = std::chrono::steady_clock::now();
    if (!r.ok()) return r.status();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    out.events_processed = r->metrics.events_processed;
    out.submitted = r->metrics.counts.submitted;
    out.txn_live_peak = r->metrics.txn_live_peak;
    out.txn_slots_created = r->metrics.txn_slots_created;
    out.txn_released = r->metrics.txn_released;
    out.readset_inline = r->metrics.readset_inline;
    out.readset_spill = r->metrics.readset_spill;
  }
  out.wall_s = best;
  out.events_per_sec =
      best > 0.0 ? static_cast<double>(out.events_processed) / best : 0.0;
  return out;
}

void WriteJson(const std::vector<CellResult>& results, double base_s,
               double rate, uint64_t seed, int reps,
               const std::string& policy, const std::string& path) {
  std::ofstream f(path);
  f << "{\n";
  f << "  \"bench\": \"bench_scale_horizon\",\n";
  f << "  \"base_s\": " << base_s << ",\n";
  f << "  \"rate\": " << rate << ",\n";
  f << "  \"seed\": " << seed << ",\n";
  f << "  \"reps\": " << reps << ",\n";
  f << "  \"policy\": \"" << policy << "\",\n";
  f << "  \"cells\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    f << "    {\"cell\": \"" << r.cell << "\", \"duration_s\": "
      << r.duration_s << ", \"rate_hz\": " << r.rate_hz
      << ", \"streamed\": " << (r.streamed ? "true" : "false")
      << ", \"wall_s\": " << r.wall_s
      << ", \"events_per_sec\": " << r.events_per_sec
      << ", \"events_processed\": " << r.events_processed
      << ", \"submitted\": " << r.submitted
      << ", \"txn_live_peak\": " << r.txn_live_peak
      << ", \"txn_slots_created\": " << r.txn_slots_created
      << ", \"txn_released\": " << r.txn_released
      << ", \"readset_inline\": " << r.readset_inline
      << ", \"readset_spill\": " << r.readset_spill << "}"
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
          {"base_s", "rate", "seed", "reps", "policy", "out"});
      !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  const double base_s = config->GetDouble("base_s", 120.0);
  const double rate = config->GetDouble("rate", 20.0);
  const uint64_t seed = config->GetInt("seed", 42);
  const int reps = static_cast<int>(config->GetInt("reps", 2));
  const std::string policy = config->GetString("policy", "unit");
  const std::string out = config->GetString("out", "BENCH_scale.json");
  if (Status s = config->CheckNumbers(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  // Two Poisson regimes, both with a saturating live population: clearly
  // stable (demand well under capacity, live set = in-flight arrivals) and
  // deeply overloaded (admission control pins the admitted live set to what
  // fits in the deadline windows). Near-critical load (util ~ 1) is
  // deliberately skipped: there queue extremes legitimately grow with
  // horizon and would confound the memory-flatness reading.
  const double horizons[] = {1.0, 3.0, 10.0};
  const double rates[] = {rate, 16.0 * rate};

  std::cout << "=== Scale horizon (streamed workloads, slab footprint) ===\n";
  TextTable table;
  table.SetHeader({"cell", "dur_s", "rate", "wall_s", "events/s", "submitted",
                   "live_peak", "slots", "spill"});
  std::vector<CellResult> results;
  auto run_one = [&](const std::string& cell, double dur_s, double rr,
                     bool streamed, bool bursty) -> bool {
    auto w = MakeCell(dur_s, rr, seed, streamed, bursty);
    if (!w.ok()) {
      std::cerr << w.status().ToString() << "\n";
      return false;
    }
    auto r = RunCell(*w, cell, policy, reps, streamed);
    if (!r.ok()) {
      std::cerr << r.status().ToString() << "\n";
      return false;
    }
    r->rate_hz = rr;
    results.push_back(*r);
    table.AddRow({r->cell, Fmt(dur_s, 0), Fmt(rr, 0), Fmt(r->wall_s, 4),
                  Fmt(r->events_per_sec, 0), std::to_string(r->submitted),
                  std::to_string(r->txn_live_peak),
                  std::to_string(r->txn_slots_created),
                  std::to_string(r->readset_spill)});
    return true;
  };
  // The flatness sweep: stationary Poisson arrivals at two rates x three
  // horizons. Live concurrency saturates within the 1x horizon, so the
  // slab footprint must not drift as total work grows 10x.
  for (const double rr : rates) {
    for (const double h : horizons) {
      std::string cell = "poisson-h";
      cell += Fmt(h, 0);
      cell += "x-r";
      cell += Fmt(rr, 0);
      if (!run_one(cell, base_s * h, rr, /*streamed=*/true,
                   /*bursty=*/false)) {
        return 1;
      }
    }
  }
  // Flash-crowd row (MMPP, the trace generator's default): here the peak IS
  // expected to grow with horizon — longer runs sample longer bursts — and
  // the slab footprint correctly tracks that real concurrency, not total
  // queries. Reported for context, excluded from the flatness check.
  for (const double h : horizons) {
    std::string cell = "mmpp-h";
    cell += Fmt(h, 0);
    cell += "x-r";
    cell += Fmt(rate, 0);
    if (!run_one(cell, base_s * h, rate, /*streamed=*/true,
                 /*bursty=*/true)) {
      return 1;
    }
  }
  // Materialized control: the smallest Poisson cell with the full trace in
  // memory. Streamed throughput should be within noise of this, and its
  // `submitted` column is the O(total) footprint the seed path pays.
  if (!run_one("poisson-h1x-materialized", base_s, rate, /*streamed=*/false,
               /*bursty=*/false)) {
    return 1;
  }
  table.Print(std::cout);

  // The flatness check the bench exists for: per Poisson rate row, peak
  // live slots across the 1x..10x horizons must not drift with total work.
  int64_t worst_spread = 0;
  double worst_growth = 0.0;
  for (size_t row = 0; row < 2; ++row) {
    int64_t lo = results[row * 3].txn_live_peak;
    int64_t hi = lo;
    for (size_t i = 0; i < 3; ++i) {
      lo = std::min(lo, results[row * 3 + i].txn_live_peak);
      hi = std::max(hi, results[row * 3 + i].txn_live_peak);
    }
    worst_spread = std::max(worst_spread, hi - lo);
    if (lo > 0) {
      worst_growth =
          std::max(worst_growth, static_cast<double>(hi) / lo);
    }
  }
  const double work_growth =
      results[0].submitted > 0
          ? static_cast<double>(results[2].submitted) / results[0].submitted
          : 0.0;
  std::cout << "peak live-slot spread across 10x Poisson horizon sweep: "
            << worst_spread << " (worst growth " << Fmt(worst_growth, 2)
            << "x vs " << Fmt(work_growth, 1) << "x submitted)\n";
  WriteJson(results, base_s, rate, seed, reps, policy, out);
  std::cout << "wrote " << out << "\n";
  return 0;
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) { return unitdb::Main(argc, argv); }
