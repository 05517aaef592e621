// Ablation A5: intra-class dispatch discipline — the paper's EDF vs plain
// FCFS — for each policy on the med-unif trace, with multi-seed error bars.
// The classic RTDB result to check: under firm deadlines and overload, EDF
// completes substantially more queries than FCFS, and UNIT's admission
// control narrows (but does not erase) the gap because it pre-filters the
// hopeless work that FCFS would otherwise run to death.
//
// Usage: bench_ablation_sched [scale=0.5] [seeds=3] [seed=42]

#include <iostream>

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
  if (Status s = config->ExpectKeys({"scale", "seed", "seeds"}); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  const double scale = config->GetDouble("scale", 0.5);
  const int seeds = static_cast<int>(config->GetInt("seeds", 3));
  const uint64_t seed = config->GetInt("seed", 42);
  if (Status s = config->CheckNumbers(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  std::cout << "=== Ablation A5: EDF vs FCFS intra-class dispatch ===\n"
            << "(med-unif, " << seeds << " seeds; mean USM +/- stddev)\n\n";
  TextTable table;
  table.SetHeader({"policy", "EDF", "FCFS", "delta"});
  for (const char* policy : {"unit", "imu", "odu", "qmf"}) {
    double usm[2] = {0.0, 0.0};
    double dev[2] = {0.0, 0.0};
    for (int d = 0; d < 2; ++d) {
      EngineParams engine;
      engine.discipline =
          d == 0 ? QueueDiscipline::kEdf : QueueDiscipline::kFcfs;
      auto r = RunReplicated(UpdateVolume::kMedium,
                             UpdateDistribution::kUniform, policy,
                             UsmWeights{}, seeds, scale, seed, engine);
      if (!r.ok()) {
        std::cerr << r.status().ToString() << "\n";
        return 1;
      }
      usm[d] = r->usm.mean();
      dev[d] = r->usm.stddev();
    }
    table.AddRow({policy, Fmt(usm[0], 3) + " +/- " + Fmt(dev[0], 3),
                  Fmt(usm[1], 3) + " +/- " + Fmt(dev[1], 3),
                  Fmt(usm[0] - usm[1], 3)});
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) { return unitdb::Main(argc, argv); }
