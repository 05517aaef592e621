// Ablation A4: victim selection and repair-policy choices inside UNIT's
// Update Frequency Modulation, plus the ODU dedupe switch.
//
//  * dt_scale — how strongly one query access shields an item (Eq. 6 scale)
//  * selective vs global upgrades (Eq. 10 interpretation, DESIGN.md §4)
//  * ODU with/without in-flight refresh dedupe
//
// Usage: bench_ablation_victim [scale=1.0] [seed=42]

#include <iostream>
#include <vector>

#include "unit/common/config.h"
#include "unit/core/policies/odu.h"
#include "unit/sched/engine.h"
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

  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, scale, seed);
  if (!w.ok()) {
    std::cerr << w.status().ToString() << "\n";
    return 1;
  }

  std::cout << "=== Ablation A4: victim selection / repair choices ===\n"
            << "trace " << w->update_trace_name << "\n";

  std::cout << "\n--- dt_scale (access shielding strength, Eq. 6) ---\n";
  TextTable t1;
  t1.SetHeader({"dt_scale", "USM", "success", "dsf", "updates shed"});
  for (double dt_scale : {1.0, 10.0, 50.0, 100.0, 400.0, 1000.0}) {
    PolicyOptions options;
    options.unit.modulation.dt_scale = dt_scale;
    auto r = RunExperiment(*w, "unit", UsmWeights{}, EngineParams{}, options);
    if (!r.ok()) {
      std::cerr << r.status().ToString() << "\n";
      return 1;
    }
    const auto& c = r->metrics.counts;
    const double shed =
        static_cast<double>(r->metrics.updates_dropped) /
        static_cast<double>(std::max<int64_t>(w->TotalSourceUpdates(), 1));
    t1.AddRow({Fmt(dt_scale, 0), Fmt(r->usm, 3),
               FmtPercent(c.SuccessRatio()), FmtPercent(c.DsfRatio()),
               FmtPercent(shed)});
  }
  t1.Print(std::cout);

  std::cout << "\n--- upgrade policy (Eq. 10 reading) ---\n";
  TextTable t2;
  t2.SetHeader({"upgrade", "USM", "success", "dsf", "updates shed"});
  struct UpgradeChoice {
    const char* name;
    bool selective;
    bool linear;
  };
  for (const UpgradeChoice& choice :
       {UpgradeChoice{"selective", true, false},
        UpgradeChoice{"global-halving", false, false},
        UpgradeChoice{"global-linear", false, true}}) {
    PolicyOptions options;
    options.unit.modulation.selective_upgrade = choice.selective;
    options.unit.modulation.linear_upgrade = choice.linear;
    auto r = RunExperiment(*w, "unit", UsmWeights{}, EngineParams{}, options);
    if (!r.ok()) {
      std::cerr << r.status().ToString() << "\n";
      return 1;
    }
    const auto& c = r->metrics.counts;
    const double shed =
        static_cast<double>(r->metrics.updates_dropped) /
        static_cast<double>(std::max<int64_t>(w->TotalSourceUpdates(), 1));
    t2.AddRow({choice.name, Fmt(r->usm, 3), FmtPercent(c.SuccessRatio()),
               FmtPercent(c.DsfRatio()), FmtPercent(shed)});
  }
  t2.Print(std::cout);

  std::cout << "\n--- ODU in-flight refresh dedupe ---\n";
  TextTable t3;
  t3.SetHeader({"dedupe", "USM", "success", "dmf", "refreshes"});
  for (bool dedupe : {true, false}) {
    OduPolicy policy(dedupe);
    Engine engine(*w, &policy, {});
    RunMetrics m = engine.Run();
    t3.AddRow({dedupe ? "on" : "off",
               Fmt(UsmAverage(m.counts, UsmWeights{}), 3),
               FmtPercent(m.counts.SuccessRatio()),
               FmtPercent(m.counts.DmfRatio()),
               std::to_string(m.on_demand_updates)});
  }
  t3.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) { return unitdb::Main(argc, argv); }
