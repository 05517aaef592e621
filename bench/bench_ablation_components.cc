// Ablation A3: which of UNIT's two mechanisms earns its keep where?
// Runs full UNIT against unit-noac (no admission control), unit-noum (no
// update frequency modulation) and unit-bare (neither) over the nine traces.
//
// Expected shape: modulation carries the win under uniform/negative update
// distributions (there is waste to shed); admission control carries the win
// under bursts and positively correlated updates (little to shed).
//
// The 9 x 4 (trace x variant) grid dispatches through RunGrid, which fans
// cells across a thread pool; row order is deterministic for any jobs count.
//
// Usage: bench_ablation_components [scale=1.0] [seed=42] [jobs=0]
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

  std::cout << "=== Ablation A3: UNIT component contributions ===\n\n";

  GridSpec spec;  // default axes: the paper's nine Table 1 traces
  spec.policies = {"unit", "unit-noac", "unit-noum", "unit-bare"};
  spec.scale = scale;
  spec.base_seed = seed;

  const auto start = std::chrono::steady_clock::now();
  auto grid = RunGrid(spec, jobs);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (!grid.ok()) {
    std::cerr << grid.status().ToString() << "\n";
    return 1;
  }

  TextTable table;
  table.SetHeader({"trace", "unit", "no-AC", "no-UM", "bare"});
  // Cells arrive trace-major, policy-minor: one row per trace, nine rows,
  // separated per distribution block like the paper's Table 1 layout.
  const size_t num_policies = spec.policies.size();
  for (size_t t = 0; t * num_policies < grid->size(); ++t) {
    std::vector<std::string> row = {
        (*grid)[t * num_policies].result.trace};
    for (size_t p = 0; p < num_policies; ++p) {
      row.push_back(Fmt((*grid)[t * num_policies + p].result.usm.mean(), 3));
    }
    table.AddRow(std::move(row));
    if (t % 3 == 2) table.AddSeparator();
  }
  table.Print(std::cout);
  std::cout << "grid wall-clock: " << Fmt(wall_s, 3) << " s (jobs=" << jobs
            << ")\n";
  return 0;
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) { return unitdb::Main(argc, argv); }
