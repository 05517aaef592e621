// Multiple user preference classes — the extension the paper sketches in
// Section 3.1 ("we believe that our framework can be easily extended to
// support multiple preferences").
//
// Two user populations share one web-database server:
//   class 0, "traders":  a late answer is worst        (C_fm = 4)
//   class 1, "analysts": a stale answer is worst       (C_fs = 4)
// UNIT values each class's failures with its own penalties, both in
// admission control and in the Load Balancing Controller; the run reports
// the per-class outcome mixes and compares the multi-class controller
// against running UNIT with either single preference applied to everyone.
//
// Usage: mixed_preferences [scale=1.0] [seed=42]
// An unknown key exits 1 with INVALID_ARGUMENT.

#include <iostream>
#include <vector>

#include "unit/common/config.h"
#include "unit/core/policies/unit_policy.h"
#include "unit/sched/engine.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"

int main(int argc, char** argv) {
  using namespace unitdb;
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

  // Two preference classes, assigned uniformly by the generator.
  QueryTraceParams qp;
  qp.num_preference_classes = 2;
  qp.duration = static_cast<SimDuration>(
      static_cast<double>(qp.duration) * scale);
  qp.seed = seed;
  auto workload = GenerateQueryTrace(qp);
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 1;
  }
  UpdateTraceParams up;
  up.volume = UpdateVolume::kMedium;
  up.seed = seed + 1;
  if (Status s = GenerateUpdateTrace(up, *workload); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  const UsmWeights trader{1.0, 2.0, 4.0, 2.0};   // hates lateness
  const UsmWeights analyst{1.0, 2.0, 2.0, 4.0};  // hates staleness
  const std::vector<UsmWeights> mixed = {trader, analyst};

  std::cout << "mixed preferences on " << workload->update_trace_name << " ("
            << workload->queries.size() << " queries, 2 classes)\n\n";

  TextTable table;
  table.SetHeader({"controller", "multi-USM", "class", "success", "rejected",
                   "late", "stale"});
  struct Variant {
    const char* name;
    std::vector<UsmWeights> weights;
  };
  for (const Variant& v :
       {Variant{"per-class weights", mixed},
        Variant{"all-trader weights", {trader}},
        Variant{"all-analyst weights", {analyst}}}) {
    UnitPolicy policy(v.weights);
    Engine engine(*workload, &policy, {});
    RunMetrics m = engine.Run();
    // Always *evaluate* with the true per-class preferences.
    const double usm = UsmAverageMulti(m.per_class_counts, mixed);
    for (size_t c = 0; c < m.per_class_counts.size(); ++c) {
      const OutcomeCounts& counts = m.per_class_counts[c];
      table.AddRow({c == 0 ? v.name : "", c == 0 ? Fmt(usm, 3) : "",
                    c == 0 ? "traders" : "analysts",
                    FmtPercent(counts.SuccessRatio()),
                    FmtPercent(counts.RejectionRatio()),
                    FmtPercent(counts.DmfRatio()),
                    FmtPercent(counts.DsfRatio())});
    }
    table.AddSeparator();
  }
  table.Print(std::cout);
  std::cout << "\nThe per-class controller values each user's failures by "
               "their own penalties;\nthe single-preference variants "
               "optimize the wrong objective for half the users.\n";
  return 0;
}
