// Extension E+: unit-hybrid — UNIT plus just-in-time buffered-value repair
// (the future-work combination DESIGN.md discusses) — over the full nine-
// trace matrix against plain UNIT and ODU. The hypothesis from
// EXPERIMENTS.md: the hybrid recovers ODU's high-volume advantage while
// keeping UNIT's wins everywhere else.
//
// Usage: bench_extension_hybrid [scale=1.0] [seed=42]

#include <iostream>
#include <vector>

#include "unit/common/config.h"
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
  if (Status s = config->ExpectKeys({"scale", "seed"}); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  const double scale = config->GetDouble("scale", 1.0);
  const uint64_t seed = config->GetInt("seed", 42);
  if (Status s = config->CheckNumbers(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  std::cout << "=== Extension: unit-hybrid (UNIT + just-in-time repair) "
               "===\n\n";
  TextTable table;
  table.SetHeader({"trace", "unit", "odu", "unit-hybrid", "winner"});
  int hybrid_wins = 0, cells = 0;
  const UpdateVolume volumes[] = {UpdateVolume::kLow, UpdateVolume::kMedium,
                                  UpdateVolume::kHigh};
  const UpdateDistribution dists[] = {UpdateDistribution::kUniform,
                                      UpdateDistribution::kPositive,
                                      UpdateDistribution::kNegative};
  for (UpdateDistribution dist : dists) {
    for (UpdateVolume volume : volumes) {
      auto w = MakeStandardWorkload(volume, dist, scale, seed);
      if (!w.ok()) {
        std::cerr << w.status().ToString() << "\n";
        return 1;
      }
      auto results =
          RunPolicies(*w, {"unit", "odu", "unit-hybrid"}, UsmWeights{});
      if (!results.ok()) {
        std::cerr << results.status().ToString() << "\n";
        return 1;
      }
      std::vector<std::string> row = {w->update_trace_name};
      double best = -1e9;
      std::string winner;
      for (const auto& r : *results) {
        row.push_back(Fmt(r.usm, 3));
        if (r.usm > best) {
          best = r.usm;
          winner = r.policy;
        }
      }
      row.push_back(winner);
      ++cells;
      if (winner == "unit-hybrid") ++hybrid_wins;
      table.AddRow(std::move(row));
    }
    table.AddSeparator();
  }
  table.Print(std::cout);
  std::cout << "\nunit-hybrid wins " << hybrid_wins << " of " << cells
            << " cells outright.\n";
  return 0;
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) { return unitdb::Main(argc, argv); }
