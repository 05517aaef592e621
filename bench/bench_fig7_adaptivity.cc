// Load-variation / adaptivity bench (the paper's Fig. 7 territory): how do
// UNIT and the fixed baselines respond when the operating point moves under
// them mid-run? Each scenario compiles a deterministic fault schedule (step
// query load, update outage) against the standard med-unif workload and
// reports the disturbance summary per policy — pre-fault baseline USM, dip
// depth inside the fault window, and time-to-recover after it. A policy with
// a working feedback loop (UNIT) should dip less and settle faster than the
// ablated/static baselines.
//
// The "none" scenario is the fault layer's regression guard: an empty
// schedule must be a strict behavioral no-op, so the bench re-runs the cell
// without the fault layer attached and exits nonzero if any headline metric
// differs bit-for-bit.
//
// Usage: bench_fig7_adaptivity [scale=0.25] [seed=42] [epsilon=0.25]
//                              [policies=unit,unit-bare,imu,qmf]
//                              [scenario=path/to/spec] [trace_dir=DIR]
//                              [out=BENCH_fig7.json]
//   scenario= replaces the two canned scenarios with a spec file (the no-op
//   check still runs); trace_dir= also writes one JSONL trace per cell.

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "unit/faults/schedule.h"
#include "unit/faults/scenario.h"
#include "unit/faults/settling.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"

namespace unitdb {
namespace {

struct NamedScenario {
  std::string name;
  FaultScenarioSpec spec;
};

/// The two canned disturbances, windowed relative to the run length so any
/// `scale` keeps the pre-fault baseline and post-fault recovery tail.
StatusOr<std::vector<NamedScenario>> CannedScenarios(double duration_s) {
  const auto window = [&](double lo, double hi) {
    std::ostringstream os;
    os << "fault0.start_s = " << duration_s * lo << "\n"
       << "fault0.end_s = " << duration_s * hi << "\n";
    return os.str();
  };
  auto step = FaultScenarioSpec::Parse(
      "name = step\nfault0.kind = load-step\nfault0.rate_hz = 20\n" +
      window(0.4, 0.6));
  if (!step.ok()) return step.status();
  auto outage = FaultScenarioSpec::Parse(
      "name = outage\nfault0.kind = update-outage\nfault0.items = 0-63\n" +
      window(0.4, 0.7));
  if (!outage.ok()) return outage.status();
  return std::vector<NamedScenario>{{"step", std::move(*step)},
                                    {"outage", std::move(*outage)}};
}

/// Empty schedule must not perturb the engine at all: every metric of a
/// faulted-but-empty run must equal the plain run's, bit for bit.
Status CheckNoFaultNoOp(const Workload& workload, const std::string& policy,
                        const UsmWeights& weights) {
  FaultScenarioSpec none;
  auto schedule = FaultSchedule::Compile(none, workload, /*workload_seed=*/0);
  if (!schedule.ok()) return schedule.status();
  auto faulted = RunFaultedExperiment(workload, policy, weights, *schedule);
  if (!faulted.ok()) return faulted.status();
  auto plain = RunExperiment(workload, policy, weights);
  if (!plain.ok()) return plain.status();

  if (!(faulted->metrics == plain->metrics)) {
    return Status(StatusCode::kInternal,
                  "empty fault schedule perturbed policy '" + policy +
                      "' (usm " + Fmt(faulted->usm, 6) + " vs " +
                      Fmt(plain->usm, 6) + ")");
  }
  return Status::Ok();
}

Status Run(bench::Args& args) {
  const double scale = args.Double("scale", 0.25);
  const uint64_t seed = args.Int("seed", 42);
  const double epsilon = args.Double("epsilon", 0.25);
  const std::string trace_dir = args.String("trace_dir", "");
  const std::string out = args.String("out", "BENCH_fig7.json");
  const std::string scenario_path = args.String("scenario", "");
  const std::vector<std::string> policies =
      args.List("policies", "unit,unit-bare,imu,qmf");
  if (Status s = args.Check(); !s.ok()) return s;
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};

  auto workload =
      MakeStandardWorkload(UpdateVolume::kMedium, UpdateDistribution::kUniform,
                           scale, seed);
  if (!workload.ok()) return workload.status();

  std::vector<NamedScenario> scenarios;
  if (!scenario_path.empty()) {
    auto spec = FaultScenarioSpec::Load(scenario_path);
    if (!spec.ok()) return spec.status();
    scenarios.push_back({spec->name, std::move(*spec)});
  } else {
    auto canned = CannedScenarios(SimToSeconds(workload->duration));
    if (!canned.ok()) return canned.status();
    scenarios = std::move(*canned);
  }

  std::cout << "=== Adaptivity under disturbance (Fig. 7 territory) ===\n";
  for (const std::string& policy : policies) {
    if (Status s = CheckNoFaultNoOp(*workload, policy, weights); !s.ok()) {
      return s;
    }
  }
  std::cout << "no-fault no-op check: ok (" << policies.size()
            << " policies)\n";

  TextTable table;
  table.SetHeader({"scenario", "policy", "usm", "baseline", "dip",
                   "recover_s"});
  std::vector<bench::JsonObject> results;
  for (const NamedScenario& scenario : scenarios) {
    auto schedule = FaultSchedule::Compile(scenario.spec, *workload, seed);
    if (!schedule.ok()) return schedule.status();
    for (const std::string& policy : policies) {
      ObsOptions obs;
      obs.series = true;
      if (!trace_dir.empty()) {
        obs.trace_path =
            trace_dir + "/fig7_" + scenario.name + "_" + policy + ".jsonl";
      }
      auto r = RunFaultedExperiment(*workload, policy, weights, *schedule,
                                    obs, {}, {}, epsilon);
      if (!r.ok()) return r.status();
      const DisturbanceReport& d = r->disturbance;
      results.push_back(bench::JsonObject()
                            .Add("scenario", scenario.name)
                            .Add("policy", policy)
                            .Add("usm", r->usm)
                            .Add("baseline_usm", d.baseline_usm)
                            .Add("min_usm", d.min_usm)
                            .Add("dip_depth", d.dip_depth)
                            .Add("recover_s", d.recover_s)
                            .Add("fault_start_s", d.fault_start_s)
                            .Add("fault_end_s", d.fault_end_s));
      table.AddRow({scenario.name, policy, Fmt(r->usm, 4),
                    Fmt(d.baseline_usm, 4), Fmt(d.dip_depth, 4),
                    d.recover_s < 0 ? "never" : Fmt(d.recover_s, 1)});
    }
  }
  table.Print(std::cout);
  return bench::WriteJson(out, "bench_fig7_adaptivity",
                          bench::JsonObject()
                              .Add("scale", scale)
                              .Add("seed", seed)
                              .Add("epsilon", epsilon),
                          results, args);
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) {
  return unitdb::bench::Main(argc, argv,
                             {"scale", "seed", "epsilon", "policies",
                              "scenario", "trace_dir", "out"},
                             unitdb::Run);
}
