// trace_tool — generate, inspect, and replay workload traces from the
// command line. The archival format is the CSV round-trip of
// unit/workload/trace_io.h, so a generated trace can be shared, diffed,
// and replayed bit-exactly.
//
//   trace_tool mode=generate out=trace.csv [volume=low|med|high]
//              [dist=unif|pos|neg] [scale=1.0] [seed=42] [classes=1]
//   trace_tool mode=inspect in=trace.csv
//   trace_tool mode=replay in=trace.csv [policy=unit] [c_r=0] [c_fm=0]
//              [c_fs=0]
//
// An unknown key, volume or distribution, a class count outside
// [1, 1024], or a trace the engine cannot replay exits 1 with
// INVALID_ARGUMENT; a missing or unknown mode prints usage and exits 2.

#include <algorithm>
#include <iostream>
#include <string>

#include "unit/common/config.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"
#include "unit/workload/trace_io.h"

namespace {

using namespace unitdb;

Status Generate(const Config& config) {
  if (Status s = config.ExpectKeys(
          {"mode", "out", "volume", "dist", "scale", "seed", "classes"});
      !s.ok()) {
    return s;
  }
  const std::string out = config.GetString("out");
  if (out.empty()) {
    return Status::InvalidArgument("mode=generate requires out=<path>");
  }
  QueryTraceParams qp;
  qp.duration = static_cast<SimDuration>(
      static_cast<double>(qp.duration) * config.GetDouble("scale", 1.0));
  qp.seed = config.GetInt("seed", 42);
  // Clamped before narrowing, so an out-of-int count fails validation
  // instead of wrapping into range.
  qp.num_preference_classes = static_cast<int>(std::clamp<int64_t>(
      config.GetInt("classes", 1), 0, kMaxPreferenceClasses + 1));
  if (Status s = config.CheckNumbers(); !s.ok()) return s;
  UpdateTraceParams up;
  const std::string volume = config.GetString("volume", "med");
  if (!UpdateVolumeFromName(volume, &up.volume)) {
    return Status::InvalidArgument("unknown volume '" + volume +
                                   "' (want low|med|high)");
  }
  const std::string dist = config.GetString("dist", "unif");
  if (!UpdateDistributionFromName(dist, &up.distribution)) {
    return Status::InvalidArgument("unknown dist '" + dist +
                                   "' (want unif|pos|neg)");
  }
  up.seed = qp.seed + 1;
  auto workload = GenerateQueryTrace(qp);
  if (!workload.ok()) return workload.status();
  if (Status s = GenerateUpdateTrace(up, *workload); !s.ok()) return s;
  if (Status s = SaveWorkload(*workload, out); !s.ok()) return s;
  std::cout << "wrote " << out << ": " << workload->queries.size()
            << " queries, " << workload->updates.size() << " update sources ("
            << workload->update_trace_name << ")\n";
  return Status::Ok();
}

Status Inspect(const Config& config) {
  if (Status s = config.ExpectKeys({"mode", "in"}); !s.ok()) return s;
  auto workload = LoadWorkload(config.GetString("in"));
  if (!workload.ok()) return workload.status();
  const Workload& w = *workload;
  std::cout << "trace: " << w.query_trace_name << " + "
            << w.update_trace_name << "\n";
  TextTable table;
  table.AddRow({"items", std::to_string(w.num_items)});
  table.AddRow({"duration (s)", Fmt(SimToSeconds(w.duration), 1)});
  table.AddRow({"queries", std::to_string(w.queries.size())});
  table.AddRow({"query utilization", FmtPercent(w.QueryUtilization())});
  table.AddRow({"update sources", std::to_string(w.updates.size())});
  table.AddRow({"source updates", std::to_string(w.TotalSourceUpdates())});
  table.AddRow({"update utilization", FmtPercent(w.UpdateUtilization())});
  int max_class = 0;
  double mean_deadline_s = 0.0, mean_items = 0.0;
  for (const auto& q : w.queries) {
    max_class = std::max(max_class, q.preference_class);
    mean_deadline_s += SimToSeconds(q.relative_deadline);
    mean_items += static_cast<double>(q.items.size());
  }
  if (!w.queries.empty()) {
    mean_deadline_s /= static_cast<double>(w.queries.size());
    mean_items /= static_cast<double>(w.queries.size());
  }
  table.AddRow({"preference classes", std::to_string(max_class + 1)});
  table.AddRow({"mean deadline (s)", Fmt(mean_deadline_s, 2)});
  table.AddRow({"mean read-set size", Fmt(mean_items, 2)});
  table.Print(std::cout);
  return Status::Ok();
}

Status Replay(const Config& config) {
  if (Status s = config.ExpectKeys(
          {"mode", "in", "policy", "c_r", "c_fm", "c_fs"});
      !s.ok()) {
    return s;
  }
  UsmWeights weights;
  weights.c_r = config.GetDouble("c_r", 0.0);
  weights.c_fm = config.GetDouble("c_fm", 0.0);
  weights.c_fs = config.GetDouble("c_fs", 0.0);
  if (Status s = config.CheckNumbers(); !s.ok()) return s;
  auto workload = LoadWorkload(config.GetString("in"));
  if (!workload.ok()) return workload.status();
  const std::string policy = config.GetString("policy", "unit");
  auto r = RunExperiment(*workload, {.policy = policy, .weights = weights});
  if (!r.ok()) return r.status();
  const auto& c = r->metrics.counts;
  std::cout << policy << " on " << r->trace << ": USM=" << Fmt(r->usm, 4)
            << " success=" << FmtPercent(c.SuccessRatio())
            << " rejected=" << FmtPercent(c.RejectionRatio())
            << " dmf=" << FmtPercent(c.DmfRatio())
            << " dsf=" << FmtPercent(c.DsfRatio())
            << " cpu=" << FmtPercent(r->metrics.Utilization()) << "\n";
  return Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  auto config = Config::ParseArgs(argc, argv);
  if (!config.ok()) {
    std::cerr << config.status().ToString() << "\n";
    return 1;
  }
  const std::string mode = config->GetString("mode");
  Status s;
  if (mode == "generate") {
    s = Generate(*config);
  } else if (mode == "inspect") {
    s = Inspect(*config);
  } else if (mode == "replay") {
    s = Replay(*config);
  } else {
    std::cerr << "usage: trace_tool mode=generate|inspect|replay ...\n"
              << "  generate: out=<path> [volume] [dist] [scale] [seed] "
                 "[classes]\n"
              << "  inspect:  in=<path>\n"
              << "  replay:   in=<path> [policy] [c_r] [c_fm] [c_fs]\n";
    return 2;
  }
  if (!s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  return 0;
}
