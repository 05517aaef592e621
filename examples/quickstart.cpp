// Quickstart: generate the paper's standard workload (cello-like query trace
// + a Table-1 update trace), run all four policies, and print the outcome
// decomposition and USM — the 60-second tour of the library.
//
// Usage: quickstart [scale=0.25] [volume=med] [dist=unif] [seed=42]
//        [c_r=0] [c_fm=0] [c_fs=0]

#include <cstdio>
#include <iostream>
#include <string>

#include "unit/common/config.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"

namespace {

unitdb::UpdateVolume ParseVolume(const std::string& s) {
  if (s == "low") return unitdb::UpdateVolume::kLow;
  if (s == "high") return unitdb::UpdateVolume::kHigh;
  return unitdb::UpdateVolume::kMedium;
}

unitdb::UpdateDistribution ParseDist(const std::string& s) {
  if (s == "pos") return unitdb::UpdateDistribution::kPositive;
  if (s == "neg") return unitdb::UpdateDistribution::kNegative;
  return unitdb::UpdateDistribution::kUniform;
}

}  // namespace

int main(int argc, char** argv) {
  auto config = unitdb::Config::ParseArgs(argc, argv);
  if (!config.ok()) {
    std::cerr << config.status().ToString() << "\n";
    return 1;
  }
  const double scale = config->GetDouble("scale", 0.25);
  const auto volume = ParseVolume(config->GetString("volume", "med"));
  const auto dist = ParseDist(config->GetString("dist", "unif"));
  const uint64_t seed = config->GetInt("seed", 42);

  unitdb::UsmWeights weights;
  weights.c_r = config->GetDouble("c_r", 0.0);
  weights.c_fm = config->GetDouble("c_fm", 0.0);
  weights.c_fs = config->GetDouble("c_fs", 0.0);
  if (unitdb::Status s = config->CheckNumbers(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  auto workload = unitdb::MakeStandardWorkload(volume, dist, scale, seed);
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 1;
  }
  std::printf(
      "workload: %s | %zu queries over %.0f s | %lld source updates "
      "(update util %.0f%%, query util %.0f%%)\n\n",
      workload->update_trace_name.c_str(), workload->queries.size(),
      unitdb::SimToSeconds(workload->duration),
      static_cast<long long>(workload->TotalSourceUpdates()),
      100.0 * workload->UpdateUtilization(),
      100.0 * workload->QueryUtilization());

  auto results =
      unitdb::RunPolicies(*workload, {"unit", "imu", "odu", "qmf"}, weights);
  if (!results.ok()) {
    std::cerr << results.status().ToString() << "\n";
    return 1;
  }

  unitdb::TextTable table;
  table.SetHeader({"policy", "USM", "success", "rejected", "dmf", "dsf",
                   "cpu util", "mean RT(s)", "updates applied"});
  for (const auto& r : *results) {
    const auto& c = r.metrics.counts;
    table.AddRow({r.policy, unitdb::Fmt(r.usm),
                  unitdb::FmtPercent(c.SuccessRatio()),
                  unitdb::FmtPercent(c.RejectionRatio()),
                  unitdb::FmtPercent(c.DmfRatio()),
                  unitdb::FmtPercent(c.DsfRatio()),
                  unitdb::FmtPercent(r.metrics.Utilization()),
                  unitdb::Fmt(r.metrics.query_response_s.mean(), 3),
                  std::to_string(r.metrics.update_commits)});
  }
  table.Print(std::cout);
  std::cout << "\nUNIT balances the three failure modes the paper names "
               "(rejections, deadline\nmisses, freshness misses) via "
               "admission control + update frequency modulation.\n";
  return 0;
}
