// Closed-loop session bench (the paper's user-centric claim under load): a
// pool of user sessions retries rejected / deadline-missed queries with
// capped exponential backoff while a canned retry storm squeezes the
// server, and the sweep reports how session count x patience moves the
// user-visible outcome — abandonment rate, p90 client retry delay, USM, and
// post-storm settling time — with overload shedding on.
//
// The "off" gate is the session layer's regression guard: sessions=0 with
// the shed watermark unset must be a strict behavioral no-op even when
// every other session knob is nonzero, so the bench re-runs each policy
// with a loaded-but-disabled SessionParams and exits nonzero if any
// headline metric differs bit-for-bit from the plain engine.
//
// All reported numbers are simulation outputs (not wall-clock), so the
// checked-in baseline under bench/baseline/ is machine-independent and
// compare_bench.py can gate on tight thresholds.
//
// Usage: bench_fig8_closed_loop [scale=0.25] [seed=42] [epsilon=0.25]
//                               [rate=40] [shed=8] [policy=unit]
//                               [sessions=8,24,48] [patience=0,2]
//                               [trace_dir=DIR] [out=BENCH_session.json]
//   trace_dir= keeps the per-cell JSONL traces (default: a temp dir,
//   deleted after the p90 retry delay is extracted).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "unit/common/config.h"
#include "unit/faults/scenario.h"
#include "unit/faults/schedule.h"
#include "unit/faults/settling.h"
#include "unit/obs/trace_reader.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"

namespace unitdb {
namespace {

struct CellResult {
  std::string cell;
  int sessions = 0;
  double patience_s = 0.0;
  double usm = 0.0;
  int64_t requests = 0;
  int64_t retries = 0;
  int64_t abandons = 0;
  int64_t shed = 0;
  double abandon_rate = 0.0;
  double retry_p90_s = 0.0;
  double recover_s = -1.0;
};

/// sessions=0 must take zero divergent branches regardless of the other
/// session knobs: every metric must equal the plain engine's, bit for bit,
/// exactly like bench_fig7's empty-schedule gate.
Status CheckSessionsOffNoOp(const Workload& workload,
                            const std::string& policy,
                            const UsmWeights& weights) {
  EngineParams off;
  off.session.sessions = 0;
  off.session.max_retries = 9;
  off.session.patience = SecondsToSim(1.0);
  off.session.backoff_base = MillisToSim(7.0);
  off.session.seed = 0xDEADBEEFULL;
  off.shed_watermark = 0;
  auto with = RunExperiment(workload, policy, weights, off);
  if (!with.ok()) return with.status();
  auto plain = RunExperiment(workload, policy, weights);
  if (!plain.ok()) return plain.status();

  if (!(with->metrics == plain->metrics)) {
    return Status(StatusCode::kInternal,
                  "disabled session layer perturbed policy '" + policy +
                      "' (usm " + Fmt(with->usm, 6) + " vs " +
                      Fmt(plain->usm, 6) + ")");
  }
  return Status::Ok();
}

/// p90 of the kSessionRetry client delays recorded in one cell's trace.
StatusOr<double> RetryDelayP90(const std::string& trace_path) {
  auto events = ReadTraceFile(trace_path);
  if (!events.ok()) return events.status();
  std::vector<SimDuration> delays;
  for (const TraceEvent& e : *events) {
    if (e.type == TraceEventType::kSessionRetry) delays.push_back(e.lag);
  }
  if (delays.empty()) return 0.0;
  std::sort(delays.begin(), delays.end());
  const size_t idx = (delays.size() * 9) / 10;
  return SimToSeconds(delays[std::min(idx, delays.size() - 1)]);
}

void WriteJson(const std::vector<CellResult>& results,
               const std::string& policy, double scale, uint64_t seed,
               double epsilon, double rate_hz, int shed_watermark,
               const std::string& path) {
  std::ofstream f(path);
  f << "{\n";
  f << "  \"bench\": \"bench_fig8_closed_loop\",\n";
  f << "  \"policy\": \"" << policy << "\",\n";
  f << "  \"scale\": " << scale << ",\n";
  f << "  \"seed\": " << seed << ",\n";
  f << "  \"epsilon\": " << epsilon << ",\n";
  f << "  \"rate_hz\": " << rate_hz << ",\n";
  f << "  \"shed_watermark\": " << shed_watermark << ",\n";
  f << "  \"cells\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    f << "    {\"cell\": \"" << r.cell << "\", \"sessions\": " << r.sessions
      << ", \"patience_s\": " << r.patience_s << ", \"usm\": " << r.usm
      << ", \"requests\": " << r.requests << ", \"retries\": " << r.retries
      << ", \"abandons\": " << r.abandons << ", \"shed\": " << r.shed
      << ", \"abandon_rate\": " << r.abandon_rate
      << ", \"retry_p90_s\": " << r.retry_p90_s
      << ", \"recover_s\": " << r.recover_s << "}"
      << (i + 1 < results.size() ? "," : "") << "\n";
  }
  f << "  ]\n";
  f << "}\n";
}

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

int Main(int argc, char** argv) {
  auto config = Config::ParseArgs(argc, argv);
  if (!config.ok()) {
    std::cerr << config.status().ToString() << "\n";
    return 1;
  }
  if (Status s = config->ExpectKeys({"scale", "seed", "epsilon", "rate",
                                     "shed", "policy", "sessions", "patience",
                                     "trace_dir", "out"});
      !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  const double scale = config->GetDouble("scale", 0.25);
  const uint64_t seed = config->GetInt("seed", 42);
  const double epsilon = config->GetDouble("epsilon", 0.25);
  const double rate_hz = config->GetDouble("rate", 40.0);
  const int shed_watermark = static_cast<int>(config->GetInt("shed", 8));
  const std::string policy = config->GetString("policy", "unit");
  const std::string out = config->GetString("out", "BENCH_session.json");
  if (Status s = config->CheckNumbers(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  std::vector<int> session_counts;
  for (const std::string& tok :
       SplitCsv(config->GetString("sessions", "8,24,48"))) {
    session_counts.push_back(std::stoi(tok));
  }
  std::vector<double> patience_levels;
  for (const std::string& tok :
       SplitCsv(config->GetString("patience", "0,2"))) {
    patience_levels.push_back(std::stod(tok));
  }
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};

  std::string trace_dir = config->GetString("trace_dir", "");
  const bool keep_traces = !trace_dir.empty();
  if (!keep_traces) {
    trace_dir = (std::filesystem::temp_directory_path() /
                 "bench_fig8_traces")
                    .string();
  }
  std::filesystem::create_directories(trace_dir);

  auto workload = MakeStandardWorkload(
      UpdateVolume::kMedium, UpdateDistribution::kUniform, scale, seed);
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 1;
  }
  const double duration_s = SimToSeconds(workload->duration);

  std::ostringstream spec_text;
  spec_text << "name = retry-storm\nfault0.kind = retry-storm\n"
            << "fault0.start_s = " << 0.4 * duration_s << "\n"
            << "fault0.end_s = " << 0.7 * duration_s << "\n"
            << "fault0.rate_hz = " << rate_hz << "\n";
  auto spec = FaultScenarioSpec::Parse(spec_text.str());
  if (!spec.ok()) {
    std::cerr << spec.status().ToString() << "\n";
    return 1;
  }
  auto schedule = FaultSchedule::Compile(*spec, *workload, seed);
  if (!schedule.ok()) {
    std::cerr << schedule.status().ToString() << "\n";
    return 1;
  }

  std::cout << "=== Closed-loop sessions under a retry storm (Fig. 8) ===\n";
  for (const char* p : {"unit", "unit-bare", "imu", "qmf"}) {
    if (Status s = CheckSessionsOffNoOp(*workload, p, weights); !s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
  }
  std::cout << "sessions-off no-op check: ok (4 policies)\n";

  TextTable table;
  table.SetHeader({"cell", "sessions", "patience_s", "usm", "abandon_rate",
                   "retry_p90_s", "recover_s"});
  std::vector<CellResult> results;
  for (int sessions : session_counts) {
    for (double patience_s : patience_levels) {
      EngineParams engine;
      engine.session.sessions = sessions;
      engine.session.max_retries = 3;
      engine.session.patience =
          patience_s > 0.0 ? SecondsToSim(patience_s) : 0;
      engine.shed_watermark = shed_watermark;

      std::ostringstream cell_name;
      cell_name << "s" << sessions << "_p" << patience_s;
      const std::string trace_path =
          trace_dir + "/fig8_" + cell_name.str() + ".jsonl";
      ObsOptions obs;
      obs.series = true;
      obs.trace_path = trace_path;
      auto r = RunFaultedExperiment(*workload, policy, weights, *schedule,
                                    obs, engine, {}, epsilon);
      if (!r.ok()) {
        std::cerr << r.status().ToString() << "\n";
        return 1;
      }
      auto p90 = RetryDelayP90(trace_path);
      if (!p90.ok()) {
        std::cerr << p90.status().ToString() << "\n";
        return 1;
      }

      CellResult cell;
      cell.cell = cell_name.str();
      cell.sessions = sessions;
      cell.patience_s = patience_s;
      cell.usm = r->usm;
      cell.requests = r->metrics.session_requests;
      cell.retries = r->metrics.session_retries;
      cell.abandons = r->metrics.session_abandons;
      cell.shed = r->metrics.queries_shed;
      cell.abandon_rate =
          cell.requests > 0
              ? static_cast<double>(cell.abandons) /
                    static_cast<double>(cell.requests)
              : 0.0;
      cell.retry_p90_s = *p90;
      cell.recover_s = r->disturbance.valid ? r->disturbance.recover_s : -1.0;
      results.push_back(cell);
      table.AddRow({cell.cell, std::to_string(sessions), Fmt(patience_s, 1),
                    Fmt(cell.usm, 4), Fmt(cell.abandon_rate, 4),
                    Fmt(cell.retry_p90_s, 4),
                    cell.recover_s < 0 ? "never" : Fmt(cell.recover_s, 1)});
    }
  }
  table.Print(std::cout);
  WriteJson(results, policy, scale, seed, epsilon, rate_hz, shed_watermark,
            out);
  std::cout << "wrote " << out << "\n";
  if (!keep_traces) {
    std::error_code ec;
    std::filesystem::remove_all(trace_dir, ec);
  }
  return 0;
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) { return unitdb::Main(argc, argv); }
