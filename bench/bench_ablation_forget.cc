// Ablation A2: sensitivity of UNIT to the forgetting factor C_forget
// (Eq. 8; paper default 0.9 "following current practice") and to the decay
// mode (time-based vs the literal per-event reading — see DESIGN.md §4).
//
// Usage: bench_ablation_forget [scale=1.0] [seed=42]

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

  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, scale, seed);
  if (!w.ok()) {
    std::cerr << w.status().ToString() << "\n";
    return 1;
  }

  std::cout << "=== Ablation A2: forgetting factor C_forget (Eq. 8) ===\n"
            << "trace " << w->update_trace_name << "\n\n";
  TextTable table;
  table.SetHeader({"decay", "C_forget", "USM", "success", "dsf",
                   "updates shed"});
  for (bool time_decay : {true, false}) {
    for (double c_forget : {0.5, 0.8, 0.9, 0.95, 0.99}) {
      PolicyOptions options;
      options.unit.modulation.time_decay = time_decay;
      options.unit.modulation.c_forget = c_forget;
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
      table.AddRow({time_decay ? "time" : "per-event", Fmt(c_forget, 2),
                    Fmt(r->usm, 3), FmtPercent(c.SuccessRatio()),
                    FmtPercent(c.DsfRatio()), FmtPercent(shed)});
    }
    table.AddSeparator();
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) { return unitdb::Main(argc, argv); }
