// Network monitoring scenario (one of the paper's motivating applications):
// an intrusion-detection dashboard over per-host flow summaries. Sensors
// push per-host updates at very different rates (a negative correlation:
// chatty hosts are rarely the ones analysts look at), while analysts run
// dashboard queries with mixed urgency — interactive drill-downs with tight
// deadlines and background sweeps with loose ones.
//
// Demonstrates: building a workload with the generator's knobs (negative
// correlation, custom utilization), replaying it through UNIT, and saving
// the trace to CSV for archival.
//
// Usage: network_monitor [duration_s=400] [hosts=512] [seed=23]
//        [save=] (optional path to dump the trace CSV)
// An unknown key exits 1 with INVALID_ARGUMENT.

#include <iostream>

#include "unit/common/config.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"
#include "unit/workload/trace_io.h"

int main(int argc, char** argv) {
  using namespace unitdb;
  auto config = Config::ParseArgs(argc, argv);
  if (!config.ok()) {
    std::cerr << config.status().ToString() << "\n";
    return 1;
  }
  if (Status s = config->ExpectKeys({"duration_s", "hosts", "seed", "save"});
      !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  const double duration_s = config->GetDouble("duration_s", 400.0);
  const int hosts = static_cast<int>(config->GetInt("hosts", 512));
  const uint64_t seed = config->GetInt("seed", 23);
  if (Status s = config->CheckNumbers(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  // Analyst queries: bursty (incident response!), strongly skewed toward
  // the hosts under investigation, mixed deadlines.
  QueryTraceParams qp;
  qp.num_items = hosts;
  qp.duration = SecondsToSim(duration_s);
  qp.base_rate_hz = 6.0;
  qp.burst_rate_multiplier = 20.0;  // incident: everyone looks at once
  qp.mean_normal_sojourn_s = 60.0;
  qp.mean_burst_sojourn_s = 5.0;
  qp.zipf_s = 1.2;
  qp.deadline_lo_factor = 2.0;
  qp.deadline_hi_factor = 8.0;
  qp.seed = seed;
  auto workload = GenerateQueryTrace(qp);
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 1;
  }

  // Sensor updates: negatively correlated with analyst attention, heavy
  // aggregate load (flow summaries are expensive to fold in).
  UpdateTraceParams up;
  up.distribution = UpdateDistribution::kNegative;
  up.utilization_override = 0.9;
  up.exec_lo_ms = 20.0;
  up.exec_hi_ms = 120.0;
  up.seed = seed + 1;
  if (Status s = GenerateUpdateTrace(up, *workload); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  std::cout << "network monitor: " << workload->queries.size()
            << " analyst queries over " << duration_s << "s, "
            << workload->TotalSourceUpdates() << " sensor updates ("
            << FmtPercent(workload->UpdateUtilization()) << " CPU if all "
            << "applied)\n\n";

  // Analysts prefer a clear "try again" over stale intel: C_fs dominant.
  const UsmWeights analyst{1.0, 0.2, 0.4, 0.8};
  auto results = RunPolicies(*workload, {"unit", "imu", "odu", "qmf"},
                             {.weights = analyst});
  if (!results.ok()) {
    std::cerr << results.status().ToString() << "\n";
    return 1;
  }
  TextTable table;
  table.SetHeader({"policy", "USM", "success", "rejected", "late", "stale",
                   "sensor updates applied"});
  for (const auto& r : *results) {
    const auto& c = r.metrics.counts;
    table.AddRow({r.policy, Fmt(r.usm), FmtPercent(c.SuccessRatio()),
                  FmtPercent(c.RejectionRatio()), FmtPercent(c.DmfRatio()),
                  FmtPercent(c.DsfRatio()),
                  std::to_string(r.metrics.update_commits)});
  }
  table.Print(std::cout);

  const std::string save = config->GetString("save");
  if (!save.empty()) {
    if (Status s = SaveWorkload(*workload, save); !s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
    std::cout << "\ntrace saved to " << save << " (replay with LoadWorkload)"
              << "\n";
  }
  return 0;
}
