// Ablation A1: sensitivity of UNIT to the degrade step C_du (Eq. 9).
// The paper's tech report claims the exact value of C_du has no significant
// effect on the average USM; this bench sweeps C_du on med-unif and med-neg
// and reports USM plus how much update load was shed.
//
// Usage: bench_ablation_cdu [scale=1.0] [seed=42]

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
  const std::vector<double> steps = {0.05, 0.1, 0.25, 0.5, 1.0};

  std::cout << "=== Ablation A1: degrade step C_du (Eq. 9) ===\n";
  for (UpdateDistribution dist :
       {UpdateDistribution::kUniform, UpdateDistribution::kNegative}) {
    auto w = MakeStandardWorkload(UpdateVolume::kMedium, dist, scale, seed);
    if (!w.ok()) {
      std::cerr << w.status().ToString() << "\n";
      return 1;
    }
    std::cout << "\n--- trace " << w->update_trace_name << " ---\n";
    TextTable table;
    table.SetHeader({"C_du", "USM", "success", "rejected", "dmf", "dsf",
                     "updates shed", "cpu util"});
    for (double c_du : steps) {
      PolicyOptions options;
      options.unit.modulation.c_du = c_du;
      auto r = RunExperiment(*w, "unit", UsmWeights{}, EngineParams{},
                             options);
      if (!r.ok()) {
        std::cerr << r.status().ToString() << "\n";
        return 1;
      }
      const auto& c = r->metrics.counts;
      const double shed =
          static_cast<double>(r->metrics.updates_dropped) /
          static_cast<double>(std::max<int64_t>(w->TotalSourceUpdates(), 1));
      table.AddRow({Fmt(c_du, 2), Fmt(r->usm, 3),
                    FmtPercent(c.SuccessRatio()),
                    FmtPercent(c.RejectionRatio()), FmtPercent(c.DmfRatio()),
                    FmtPercent(c.DsfRatio()), FmtPercent(shed),
                    FmtPercent(r->metrics.Utilization())});
    }
    table.Print(std::cout);
  }
  std::cout << "\npaper claim to check: USM varies little across C_du "
               "(the controller cadence,\nnot the per-pick step, sets the "
               "equilibrium).\n";
  return 0;
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) { return unitdb::Main(argc, argv); }
