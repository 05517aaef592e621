// Quickstart: generate the paper's standard workload (cello-like query trace
// + a Table-1 update trace), run all four policies, and print the outcome
// decomposition and USM — the 60-second tour of the library.
//
// Usage: quickstart [scale=0.25] [volume=low|med|high] [dist=unif|pos|neg]
//        [seed=42] [c_r=0] [c_fm=0] [c_fs=0]
// An unknown key, volume or distribution exits 1 with INVALID_ARGUMENT.

#include <cstdio>
#include <iostream>
#include <string>

#include "unit/common/config.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"

namespace {

using namespace unitdb;

Status Run(const Config& config) {
  if (Status s = config.ExpectKeys(
          {"scale", "volume", "dist", "seed", "c_r", "c_fm", "c_fs"});
      !s.ok()) {
    return s;
  }
  const double scale = config.GetDouble("scale", 0.25);
  const std::string volume_name = config.GetString("volume", "med");
  const std::string dist_name = config.GetString("dist", "unif");
  const uint64_t seed = config.GetInt("seed", 42);

  UsmWeights weights;
  weights.c_r = config.GetDouble("c_r", 0.0);
  weights.c_fm = config.GetDouble("c_fm", 0.0);
  weights.c_fs = config.GetDouble("c_fs", 0.0);
  if (Status s = config.CheckNumbers(); !s.ok()) return s;
  UpdateVolume volume;
  if (!UpdateVolumeFromName(volume_name, &volume)) {
    return Status::InvalidArgument("unknown volume '" + volume_name +
                                   "' (want low|med|high)");
  }
  UpdateDistribution dist;
  if (!UpdateDistributionFromName(dist_name, &dist)) {
    return Status::InvalidArgument("unknown dist '" + dist_name +
                                   "' (want unif|pos|neg)");
  }

  auto workload = MakeStandardWorkload(volume, dist, scale, seed);
  if (!workload.ok()) return workload.status();
  std::printf(
      "workload: %s | %zu queries over %.0f s | %lld source updates "
      "(update util %.0f%%, query util %.0f%%)\n\n",
      workload->update_trace_name.c_str(), workload->queries.size(),
      SimToSeconds(workload->duration),
      static_cast<long long>(workload->TotalSourceUpdates()),
      100.0 * workload->UpdateUtilization(),
      100.0 * workload->QueryUtilization());

  auto results = RunPolicies(*workload, {"unit", "imu", "odu", "qmf"},
                             {.weights = weights});
  if (!results.ok()) return results.status();

  TextTable table;
  table.SetHeader({"policy", "USM", "success", "rejected", "dmf", "dsf",
                   "cpu util", "mean RT(s)", "updates applied"});
  for (const auto& r : *results) {
    const auto& c = r.metrics.counts;
    table.AddRow({r.policy, Fmt(r.usm), FmtPercent(c.SuccessRatio()),
                  FmtPercent(c.RejectionRatio()), FmtPercent(c.DmfRatio()),
                  FmtPercent(c.DsfRatio()),
                  FmtPercent(r.metrics.Utilization()),
                  Fmt(r.metrics.query_response_s.mean(), 3),
                  std::to_string(r.metrics.update_commits)});
  }
  table.Print(std::cout);
  std::cout << "\nUNIT balances the three failure modes the paper names "
               "(rejections, deadline\nmisses, freshness misses) via "
               "admission control + update frequency modulation.\n";
  return Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  auto config = Config::ParseArgs(argc, argv);
  const Status s = config.ok() ? Run(*config) : config.status();
  if (!s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  return 0;
}
