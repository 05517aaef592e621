// Reproduces Figure 4 of the paper: the "naive" USM (all penalty weights
// zero, so USM == success ratio) for IMU, ODU, QMF and UNIT over the nine
// update traces — panels (a) uniform, (b) positive, (c) negative, each with
// low/med/high volume groups — including ASCII bar renderings.
//
// All cells dispatch through RunGrid, which fans the (trace x policy) grid
// across a thread pool; cell order (and hence every table) is deterministic
// for any jobs count.
//
// Usage: bench_fig4_naive_usm [scale=1.0] [seed=42] [seeds=1] [jobs=0]
//                             [shard=1] [grid=1] [trace_dir=DIR]
//                             [trace_cell=NAME]
//   seeds > 1 appends a multi-seed table (mean +/- stddev over independent
//   workload replications) for error bars.
//   jobs=0: one worker per hardware thread.
//   shard=N runs every grid cell through the sharded multi-engine runner
//   (shard/sharded.h) with N shards; shard=1 keeps the monolithic engine.
//   Traced re-runs (trace_dir) stay monolithic either way.
//   trace_dir=DIR additionally re-runs cells single-shot with observability
//   attached, writing DIR/<trace>-<policy>.jsonl (event trace, the input
//   format of tools/trace_check) and DIR/<trace>-<policy>-series.csv (the
//   per-control-window time series). trace_cell=NAME (e.g. med-unif)
//   restricts the traced runs to one trace; grid=0 skips the headline grid
//   so CI can generate a trace cheaply.

#include <chrono>
#include <filesystem>
#include <iostream>
#include <vector>

#include "unit/common/config.h"
#include "unit/common/thread_pool.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"

namespace unitdb {
namespace {

// Single-shot traced re-runs of the (trace x policy) cells, one JSONL event
// trace plus one window-series CSV per cell. Sequential on purpose: each run
// owns its sink files and the runs are cheap at CI scale.
int RunTracedCells(const GridSpec& spec, const std::string& trace_dir,
                   const std::string& trace_cell, double scale,
                   uint64_t seed) {
  std::error_code ec;
  std::filesystem::create_directories(trace_dir, ec);
  if (ec) {
    std::cerr << "cannot create " << trace_dir << ": " << ec.message()
              << "\n";
    return 1;
  }
  std::cout << "\n--- traced runs (JSONL + window series) -> " << trace_dir
            << " ---\n";
  bool matched = false;
  for (UpdateDistribution dist : spec.distributions) {
    for (UpdateVolume volume : spec.volumes) {
      auto workload = MakeStandardWorkload(volume, dist, scale, seed);
      if (!workload.ok()) {
        std::cerr << workload.status().ToString() << "\n";
        return 1;
      }
      const std::string& trace = workload->update_trace_name;
      if (!trace_cell.empty() && trace != trace_cell) continue;
      matched = true;
      for (const std::string& policy : spec.policies) {
        ObsOptions obs;
        obs.trace_path = trace_dir + "/" + trace + "-" + policy + ".jsonl";
        obs.series_csv_path =
            trace_dir + "/" + trace + "-" + policy + "-series.csv";
        auto r = RunTracedExperiment(*workload, policy, UsmWeights{}, obs);
        if (!r.ok()) {
          std::cerr << r.status().ToString() << "\n";
          return 1;
        }
        int64_t events = 0;
        for (const auto& [name, value] : r->metrics.obs_counters) {
          if (name == "sink.jsonl.events") events = value;
        }
        std::cout << "  " << trace << " " << policy << " usm="
                  << Fmt(r->usm, 3) << " events=" << events << " windows="
                  << r->series.size() << "\n";
      }
    }
  }
  if (!matched) {
    std::cerr << "trace_cell '" << trace_cell
              << "' matches no trace (expected e.g. med-unif)\n";
    return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  auto config = Config::ParseArgs(argc, argv);
  if (!config.ok()) {
    std::cerr << config.status().ToString() << "\n";
    return 1;
  }
  if (Status s = config->ExpectKeys({"scale", "seed", "seeds", "jobs",
                                     "shard", "shards", "grid", "trace_dir",
                                     "trace_cell"});
      !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  const double scale = config->GetDouble("scale", 1.0);
  const uint64_t seed = config->GetInt("seed", 42);
  const int jobs = ResolveJobs(static_cast<int>(config->GetInt("jobs", 0)));
  const bool run_grid = config->GetBool("grid", true);
  const std::string trace_dir = config->GetString("trace_dir", "");
  const std::string trace_cell = config->GetString("trace_cell", "");
  // `shards=` is the canonical spelling (matching diff_fuzz and the README
  // knobs table); `shard=` stays accepted for older scripts.
  const int shards =
      static_cast<int>(config->GetInt("shards", config->GetInt("shard", 1)));
  const int seeds = static_cast<int>(config->GetInt("seeds", 1));
  if (Status s = config->CheckNumbers(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  const std::vector<std::string> policies = {"imu", "odu", "qmf", "unit"};

  std::cout << "=== Figure 4: naive USM (= success ratio) ===\n";

  const char* panel[] = {"(a) uniform", "(b) positive correlation",
                         "(c) negative correlation"};

  // The full 9-trace x 4-policy grid in one parallel sweep. Empty
  // `weightings` means the naive weighting (all penalties zero, USM ==
  // success ratio); cells come back distribution-major, volume, policy —
  // the panel order below.
  GridSpec spec;
  spec.policies = policies;
  spec.scale = scale;
  spec.base_seed = seed;
  spec.shards = shards;
  if (spec.shards > 1) {
    std::cout << "(sharded runner: shards=" << spec.shards
              << ", parent-level Eq. 5 accounting)\n";
  }

  if (run_grid) {
    const auto grid_t0 = std::chrono::steady_clock::now();
    auto grid = RunGrid(spec, jobs);
    if (!grid.ok()) {
      std::cerr << grid.status().ToString() << "\n";
      return 1;
    }
    double grid_wall_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - grid_t0)
                             .count();

    for (size_t d = 0; d < spec.distributions.size(); ++d) {
      std::cout << "\n--- Fig 4" << panel[d] << " ---\n";
      TextTable table;
      table.SetHeader({"trace", "imu", "odu", "qmf", "unit", "winner"});
      for (size_t v = 0; v < spec.volumes.size(); ++v) {
        const GridCellResult* cells =
            grid->data() + (d * spec.volumes.size() + v) * policies.size();
        std::vector<std::string> row = {cells[0].result.trace};
        double best = -1e9;
        std::string winner;
        for (size_t p = 0; p < policies.size(); ++p) {
          const double usm = cells[p].result.usm.mean();
          row.push_back(Fmt(usm, 3));
          if (usm > best) {
            best = usm;
            winner = cells[p].result.policy;
          }
        }
        row.push_back(winner);
        table.AddRow(std::move(row));

        // ASCII bars mirroring the paper's grouped bar chart.
        for (size_t p = 0; p < policies.size(); ++p) {
          const double usm = cells[p].result.usm.mean();
          std::cout << "  " << cells[p].result.trace << " "
                    << cells[p].result.policy << " " << Bar(usm, 1.0) << " "
                    << Fmt(usm, 3) << "\n";
        }
      }
      std::cout << "\n";
      table.Print(std::cout);
    }
    // Optional multi-seed replication for error bars: the same grid with
    // `seeds` replications per cell, again fanned across the pool.
    if (seeds > 1) {
      std::cout << "\n--- multi-seed (" << seeds
                << " replications, mean +/- stddev) ---\n";
      GridSpec rep_spec = spec;
      rep_spec.replications = seeds;
      const auto rep_t0 = std::chrono::steady_clock::now();
      auto rep_grid = RunGrid(rep_spec, jobs);
      if (!rep_grid.ok()) {
        std::cerr << rep_grid.status().ToString() << "\n";
        return 1;
      }
      grid_wall_s += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - rep_t0)
                         .count();
      TextTable reps;
      reps.SetHeader({"trace", "imu", "odu", "qmf", "unit"});
      for (size_t cell = 0; cell < rep_grid->size();
           cell += policies.size()) {
        std::vector<std::string> row = {(*rep_grid)[cell].result.trace};
        for (size_t p = 0; p < policies.size(); ++p) {
          const ReplicatedResult& r = (*rep_grid)[cell + p].result;
          row.push_back(Fmt(r.usm.mean(), 3) + "+/-" +
                        Fmt(r.usm.stddev(), 3));
        }
        reps.AddRow(std::move(row));
      }
      reps.Print(std::cout);
    }

    std::cout << "grid wall-clock: " << Fmt(grid_wall_s, 3) << " s (jobs="
              << jobs << ")\n";
    std::cout << "\npaper shape: UNIT leads or ties in every panel; IMU "
                 "collapses at high volume;\nQMF trails ODU at uniform; IMU ~ "
                 "ODU under positive correlation; ODU ~ UNIT\nunder negative "
                 "correlation.\n";
  }

  if (!trace_dir.empty()) {
    return RunTracedCells(spec, trace_dir, trace_cell, scale, seed);
  }
  return 0;
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) { return unitdb::Main(argc, argv); }
