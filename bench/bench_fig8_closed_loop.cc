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
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "unit/faults/scenario.h"
#include "unit/faults/schedule.h"
#include "unit/faults/settling.h"
#include "unit/obs/trace_reader.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"

namespace unitdb {
namespace {

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

Status Run(bench::Args& args) {
  const double scale = args.Double("scale", 0.25);
  const uint64_t seed = args.Int("seed", 42);
  const double epsilon = args.Double("epsilon", 0.25);
  const double rate_hz = args.Double("rate", 40.0);
  const int shed_watermark = static_cast<int>(args.Int("shed", 8, 0));
  const std::string policy = args.String("policy", "unit");
  const std::string out = args.String("out", "BENCH_session.json");
  const std::vector<int64_t> session_counts =
      args.Ints("sessions", "8,24,48", 0);
  const std::vector<double> patience_levels = args.Doubles("patience", "0,2");
  std::string trace_dir = args.String("trace_dir", "");
  if (Status s = args.Check(); !s.ok()) return s;
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};

  const bool keep_traces = !trace_dir.empty();
  if (!keep_traces) {
    trace_dir = (std::filesystem::temp_directory_path() /
                 "bench_fig8_traces")
                    .string();
  }
  std::filesystem::create_directories(trace_dir);

  auto workload = MakeStandardWorkload(
      UpdateVolume::kMedium, UpdateDistribution::kUniform, scale, seed);
  if (!workload.ok()) return workload.status();
  const double duration_s = SimToSeconds(workload->duration);

  std::ostringstream spec_text;
  spec_text << "name = retry-storm\nfault0.kind = retry-storm\n"
            << "fault0.start_s = " << 0.4 * duration_s << "\n"
            << "fault0.end_s = " << 0.7 * duration_s << "\n"
            << "fault0.rate_hz = " << rate_hz << "\n";
  auto spec = FaultScenarioSpec::Parse(spec_text.str());
  if (!spec.ok()) return spec.status();
  auto schedule = FaultSchedule::Compile(*spec, *workload, seed);
  if (!schedule.ok()) return schedule.status();

  std::cout << "=== Closed-loop sessions under a retry storm (Fig. 8) ===\n";
  for (const char* p : {"unit", "unit-bare", "imu", "qmf"}) {
    if (Status s = CheckSessionsOffNoOp(*workload, p, weights); !s.ok()) {
      return s;
    }
  }
  std::cout << "sessions-off no-op check: ok (4 policies)\n";

  TextTable table;
  table.SetHeader({"cell", "sessions", "patience_s", "usm", "abandon_rate",
                   "retry_p90_s", "recover_s"});
  std::vector<bench::JsonObject> results;
  for (int64_t sessions : session_counts) {
    for (double patience_s : patience_levels) {
      EngineParams engine;
      engine.session.sessions = static_cast<int>(sessions);
      engine.session.max_retries = 3;
      engine.session.patience =
          patience_s > 0.0 ? SecondsToSim(patience_s) : 0;
      engine.shed_watermark = shed_watermark;

      std::ostringstream cell_name;
      cell_name << "s" << sessions << "_p" << patience_s;
      const std::string cell = cell_name.str();
      const std::string trace_path = trace_dir + "/fig8_" + cell + ".jsonl";
      ObsOptions obs;
      obs.series = true;
      obs.trace_path = trace_path;
      auto r = RunFaultedExperiment(*workload, policy, weights, *schedule,
                                    obs, engine, {}, epsilon);
      if (!r.ok()) return r.status();
      auto p90 = RetryDelayP90(trace_path);
      if (!p90.ok()) return p90.status();

      const RunMetrics& m = r->metrics;
      const double abandon_rate =
          m.session_requests > 0
              ? static_cast<double>(m.session_abandons) /
                    static_cast<double>(m.session_requests)
              : 0.0;
      const double recover_s =
          r->disturbance.valid ? r->disturbance.recover_s : -1.0;
      results.push_back(bench::JsonObject()
                            .Add("cell", cell)
                            .Add("sessions", sessions)
                            .Add("patience_s", patience_s)
                            .Add("usm", r->usm)
                            .Add("requests", m.session_requests)
                            .Add("retries", m.session_retries)
                            .Add("abandons", m.session_abandons)
                            .Add("shed", m.queries_shed)
                            .Add("abandon_rate", abandon_rate)
                            .Add("retry_p90_s", *p90)
                            .Add("recover_s", recover_s));
      table.AddRow({cell, std::to_string(sessions), Fmt(patience_s, 1),
                    Fmt(r->usm, 4), Fmt(abandon_rate, 4), Fmt(*p90, 4),
                    recover_s < 0 ? "never" : Fmt(recover_s, 1)});
    }
  }
  table.Print(std::cout);
  Status written = bench::WriteJson(out, "bench_fig8_closed_loop",
                                    bench::JsonObject()
                                        .Add("policy", policy)
                                        .Add("scale", scale)
                                        .Add("seed", seed)
                                        .Add("epsilon", epsilon)
                                        .Add("rate_hz", rate_hz)
                                        .Add("shed_watermark", shed_watermark),
                                    results, args);
  if (!keep_traces) {
    std::error_code ec;
    std::filesystem::remove_all(trace_dir, ec);
  }
  return written;
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) {
  return unitdb::bench::Main(argc, argv,
                             {"scale", "seed", "epsilon", "rate", "shed",
                              "policy", "sessions", "patience", "trace_dir",
                              "out"},
                             unitdb::Run);
}
