// Reproduces Figure 5 (and prints Table 2) of the paper: USM of the four
// algorithms on the med-unif trace under non-zero penalty weights —
// (a) penalties < 1 and (b) penalties > 1, with the x-axis settings
// high-Cr / high-Cfm / high-Cfs (the named cost made dominant).
//
// The paper's finding: UNIT performs best in both regimes and stays stable
// across the settings, because it minimizes whichever cost dominates.
//
// Both panels dispatch through RunGrid, which fans the (setting x policy)
// cells across a thread pool; cell order (and hence the table) is
// deterministic for any jobs count.
//
// Usage: bench_fig5_penalties [scale=1.0] [seed=42] [jobs=0]
//        (jobs=0: one worker per hardware thread)

#include <chrono>
#include <iostream>
#include <vector>

#include "unit/common/config.h"
#include "unit/common/thread_pool.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"

namespace unitdb {
namespace {

void PrintTable2(const std::vector<NamedWeights>& below,
                 const std::vector<NamedWeights>& above) {
  std::cout << "--- Table 2: USM weights ---\n";
  TextTable table;
  table.SetHeader({"setting", "C_s", "C_r", "C_fm", "C_fs"});
  auto add = [&table](const char* regime, const NamedWeights& nw) {
    table.AddRow({std::string(regime) + " " + nw.name, Fmt(nw.weights.gain, 1),
                  Fmt(nw.weights.c_r, 1), Fmt(nw.weights.c_fm, 1),
                  Fmt(nw.weights.c_fs, 1)});
  };
  for (const auto& nw : below) add("penalties<1", nw);
  table.AddSeparator();
  for (const auto& nw : above) add("penalties>1", nw);
  table.Print(std::cout);
}

const std::vector<std::string> kPolicies = {"imu", "odu", "qmf", "unit"};

int RunPanel(const char* title, const std::vector<NamedWeights>& settings,
             double scale, uint64_t seed, int jobs) {
  GridSpec spec;
  spec.volumes = {UpdateVolume::kMedium};
  spec.distributions = {UpdateDistribution::kUniform};
  spec.policies = kPolicies;
  spec.weightings = settings;
  spec.scale = scale;
  spec.base_seed = seed;
  auto grid = RunGrid(spec, jobs);
  if (!grid.ok()) {
    std::cerr << grid.status().ToString() << "\n";
    return 1;
  }
  std::cout << "\n--- " << title << " (trace "
            << grid->front().result.trace << ") ---\n";
  TextTable table;
  table.SetHeader({"setting", "imu", "odu", "qmf", "unit", "winner"});
  double unit_min = 1e9, unit_max = -1e9;
  // Cells arrive weighting-major, policy-minor: one row per setting.
  for (size_t s = 0; s < settings.size(); ++s) {
    std::vector<std::string> row = {settings[s].name};
    double best = -1e9;
    std::string winner;
    for (size_t p = 0; p < kPolicies.size(); ++p) {
      const GridCellResult& cell = (*grid)[s * kPolicies.size() + p];
      const double usm = cell.result.usm.mean();
      row.push_back(Fmt(usm, 3));
      if (usm > best) {
        best = usm;
        winner = cell.result.policy;
      }
      if (cell.result.policy == "unit") {
        unit_min = std::min(unit_min, usm);
        unit_max = std::max(unit_max, usm);
      }
    }
    row.push_back(winner);
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::cout << "UNIT stability across settings: min=" << Fmt(unit_min, 3)
            << " max=" << Fmt(unit_max, 3)
            << " spread=" << Fmt(unit_max - unit_min, 3) << "\n";
  return 0;
}

int Main(int argc, char** argv) {
  auto config = Config::ParseArgs(argc, argv);
  if (!config.ok()) {
    std::cerr << config.status().ToString() << "\n";
    return 1;
  }
  if (Status s = config->ExpectKeys({"scale", "seed", "jobs"}); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  const double scale = config->GetDouble("scale", 1.0);
  const uint64_t seed = config->GetInt("seed", 42);
  const int jobs = ResolveJobs(static_cast<int>(config->GetInt("jobs", 0)));
  if (Status s = config->CheckNumbers(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  std::cout << "=== Figure 5: USM under non-zero penalty costs ===\n\n";
  const auto below = Table2WeightsBelowOne();
  const auto above = Table2WeightsAboveOne();
  PrintTable2(below, above);

  const auto start = std::chrono::steady_clock::now();
  if (RunPanel("Fig 5(a): penalties < 1", below, scale, seed, jobs) != 0) {
    return 1;
  }
  if (RunPanel("Fig 5(b): penalties > 1", above, scale, seed, jobs) != 0) {
    return 1;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::cout << "grid wall-clock: " << Fmt(wall_s, 3) << " s (jobs=" << jobs
            << ")\n";
  std::cout << "\npaper shape: UNIT best in both regimes; QMF suffers most "
               "under high C_r\n(it rejects aggressively); IMU/ODU suffer "
               "under high C_fm (they miss deadlines).\n";
  return 0;
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) { return unitdb::Main(argc, argv); }
