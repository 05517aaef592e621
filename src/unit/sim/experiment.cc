#include "unit/sim/experiment.h"

#include <memory>
#include <utility>

#include "unit/common/fan_out.h"
#include "unit/faults/schedule.h"
#include "unit/obs/trace_sink.h"
#include "unit/shard/sharded.h"

namespace unitdb {

namespace {

bool NamesAFile(const ObsOptions& obs) {
  return !obs.trace_path.empty() || !obs.series_csv_path.empty();
}

// Folds one replication's headline metrics into the aggregate. RunGrid
// folds in replication order, so the floating-point accumulation sequence
// never depends on the worker count.
void AccumulateReplication(const ExperimentResult& r, ReplicatedResult& agg) {
  const OutcomeCounts& c = r.metrics.counts;
  agg.trace = r.trace;
  agg.usm.Add(r.usm);
  agg.success_ratio.Add(c.SuccessRatio());
  agg.rejection_ratio.Add(c.RejectionRatio());
  agg.dmf_ratio.Add(c.DmfRatio());
  agg.dsf_ratio.Add(c.DsfRatio());
}

Status CheckGrid(const GridSpec& spec) {
  if (spec.replications <= 0) {
    return Status::InvalidArgument("replications must be positive");
  }
  if (spec.volumes.empty() || spec.distributions.empty() ||
      spec.policies.empty()) {
    return Status::InvalidArgument("grid has an empty axis");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<ExperimentResult> RunExperiment(const Workload& workload,
                                         const RunRequest& request) {
  const ObsOptions& obs = request.obs;
  const bool series = obs.series || !obs.series_csv_path.empty();
  std::optional<FaultSchedule> schedule;
  if (request.scenario) {
    auto compiled =
        FaultSchedule::Compile(*request.scenario, workload, request.fault_seed);
    if (!compiled.ok()) return compiled.status();
    schedule = std::move(*compiled);
  }

  ExperimentResult result;
  result.trace = workload.update_trace_name.empty()
                     ? workload.query_trace_name
                     : workload.update_trace_name;
  result.policy = request.policy;
  result.weights = request.weights;
  if (request.shards > 0) {
    // RunSharded compiles the scenario per shard and merges the series.
    const EngineParams& e = request.engine;
    if (e.trace != nullptr || e.series != nullptr || e.faults != nullptr ||
        NamesAFile(obs) || !obs.events.empty()) {
      return Status::InvalidArgument(
          "a sharded run wires its own trace, series and faults: set no "
          "EngineParams pointer, ObsOptions file or kept event");
    }
    auto sharded = RunSharded(
        workload, request.policy, request.weights,
        {.shards = request.shards,
         .jobs = request.jobs,
         .engine = e,
         .options = request.options,
         .record_series = series,
         .scenario = request.scenario ? &*request.scenario : nullptr,
         .fault_seed = request.fault_seed});
    if (!sharded.ok()) return sharded.status();
    result.metrics = std::move(sharded->metrics);
    result.series = std::move(sharded->merged_series);
  } else {
    Server::Config config{request.policy, request.weights, request.engine,
                          request.options};
    EngineParams& ep = config.engine;
    if (schedule) {
      if (ep.faults != nullptr) {
        return Status::InvalidArgument(
            "a run takes its faults from a scenario or from "
            "EngineParams::faults, not both");
      }
      ep.faults = &*schedule;
    }
    std::unique_ptr<JsonlTraceSink> file;
    if (!obs.trace_path.empty()) {
      auto opened = JsonlTraceSink::Open(obs.trace_path);
      if (!opened.ok()) return opened.status();
      file = std::move(*opened);
      ep.trace = file.get();
    }
    std::optional<KeepingSink> keep;
    if (!obs.events.empty()) ep.trace = &keep.emplace(obs.events, ep.trace);
    TimeSeriesRecorder recorder(request.weights);
    if (series) ep.series = &recorder;

    auto server = Server::Create(workload, config);
    if (!server.ok()) return server.status();
    result.metrics = (*server)->Run();
    if (keep) result.events = std::move(keep->kept);
    if (series) result.series = recorder.samples();
    if (!obs.series_csv_path.empty()) {
      if (Status s = recorder.WriteCsv(obs.series_csv_path); !s.ok()) return s;
    }
  }
  result.usm = UsmAverage(result.metrics.counts, request.weights);
  result.breakdown = UsmDecompose(result.metrics.counts, request.weights);
  if (schedule && !schedule->empty() && !result.series.empty()) {
    result.disturbance = ComputeDisturbance(result.series, *schedule);
  }
  return result;
}

StatusOr<std::vector<ExperimentResult>> RunPolicies(
    const Workload& workload, const std::vector<std::string>& policies,
    const RunRequest& request) {
  std::vector<ExperimentResult> results;
  results.reserve(policies.size());
  RunRequest each = request;
  for (const auto& policy : policies) {
    each.policy = policy;
    auto r = RunExperiment(workload, each);
    if (!r.ok()) return r.status();
    results.push_back(std::move(*r));
  }
  return results;
}

StatusOr<Workload> MakeStandardWorkload(UpdateVolume volume,
                                        UpdateDistribution distribution,
                                        double scale, uint64_t seed) {
  if (scale <= 0.0) return Status::InvalidArgument("scale <= 0");
  QueryTraceParams qp;
  qp.seed = seed;
  qp.duration = static_cast<SimDuration>(
      static_cast<double>(qp.duration) * scale);
  auto workload = GenerateQueryTrace(qp);
  if (!workload.ok()) return workload.status();

  UpdateTraceParams up;
  up.volume = volume;
  up.distribution = distribution;
  up.seed = seed + 1;
  Status s = GenerateUpdateTrace(up, *workload);
  if (!s.ok()) return s;
  return workload;
}

uint64_t ReplicationSeed(uint64_t base_seed, int replication) {
  return base_seed + 100 * static_cast<uint64_t>(replication);
}

StatusOr<std::vector<Workload>> MakeGridWorkloads(const GridSpec& spec,
                                                  int jobs) {
  const int num_volumes = static_cast<int>(spec.volumes.size());
  const int reps = spec.replications;
  return FanOut(
      static_cast<int>(spec.distributions.size()) * num_volumes * reps, jobs,
      [&](int k) {
        const int trace = k / reps;
        return MakeStandardWorkload(spec.volumes[trace % num_volumes],
                                    spec.distributions[trace / num_volumes],
                                    spec.scale,
                                    ReplicationSeed(spec.base_seed, k % reps));
      });
}

StatusOr<std::vector<GridCellResult>> RunGrid(
    const GridSpec& spec, const std::vector<Workload>& workloads, int jobs) {
  if (Status s = CheckGrid(spec); !s.ok()) return s;
  const int num_volumes = static_cast<int>(spec.volumes.size());
  const int num_traces =
      static_cast<int>(spec.distributions.size()) * num_volumes;
  const int reps = spec.replications;
  if (std::ssize(workloads) != num_traces * reps) {
    return Status::InvalidArgument("grid needs one workload per (trace, "
                                   "replication)");
  }
  const std::vector<GridVariant> variants =
      spec.variants.empty() ? std::vector<GridVariant>{{"naive", {}}}
                            : spec.variants;
  for (const GridVariant& v : variants) {
    if (NamesAFile(v.request.obs)) {
      return Status::InvalidArgument(
          "grid variant '" + v.name +
          "' names an ObsOptions file, which every replication would write");
    }
  }

  // One task per (cell, replication); each cell then folds its replications
  // in order, so no result depends on the worker count.
  std::vector<GridCellResult> cells;
  std::vector<const RunRequest*> requests;  // per cell
  for (int t = 0; t < num_traces; ++t) {
    for (const GridVariant& v : variants) {
      for (const std::string& policy : spec.policies) {
        GridCellResult& cell = cells.emplace_back();
        cell.volume = spec.volumes[static_cast<size_t>(t % num_volumes)];
        cell.distribution =
            spec.distributions[static_cast<size_t>(t / num_volumes)];
        cell.variant = v.name;
        cell.result.policy = policy;
        cell.result.replications = reps;
        requests.push_back(&v.request);
      }
    }
  }
  const int cells_per_trace = static_cast<int>(cells.size()) / num_traces;
  auto runs = FanOut(static_cast<int>(cells.size()) * reps, jobs, [&](int k) {
    const size_t c = static_cast<size_t>(k / reps);
    RunRequest request = *requests[c];
    request.policy = cells[c].result.policy;
    request.fault_seed = ReplicationSeed(spec.base_seed, k % reps);
    const int trace = k / reps / cells_per_trace;
    return RunExperiment(
        workloads[static_cast<size_t>(trace * reps + k % reps)], request);
  });
  if (!runs.ok()) return runs.status();
  for (size_t k = 0; k < runs->size(); ++k) {
    GridCellResult& cell = cells[k / static_cast<size_t>(reps)];
    AccumulateReplication((*runs)[k], cell.result);
    cell.runs.push_back(std::move((*runs)[k]));
  }
  return cells;
}

StatusOr<std::vector<GridCellResult>> RunGrid(const GridSpec& spec,
                                              int jobs) {
  if (Status s = CheckGrid(spec); !s.ok()) return s;
  auto workloads = MakeGridWorkloads(spec, jobs);
  if (!workloads.ok()) return workloads.status();
  return RunGrid(spec, *workloads, jobs);
}

// The OCR of the paper's Table 2 lost the numeric weight cells; these values
// follow its structure exactly — three settings per regime, each making one
// penalty dominant — with representative magnitudes (see DESIGN.md §4).
std::vector<GridVariant> Table2WeightsBelowOne() {
  return {
      {"high-Cr", {.weights = {1.0, 0.8, 0.2, 0.2}}},
      {"high-Cfm", {.weights = {1.0, 0.2, 0.8, 0.2}}},
      {"high-Cfs", {.weights = {1.0, 0.2, 0.2, 0.8}}},
  };
}

std::vector<GridVariant> Table2WeightsAboveOne() {
  return {
      {"high-Cr", {.weights = {1.0, 4.0, 2.0, 2.0}}},
      {"high-Cfm", {.weights = {1.0, 2.0, 4.0, 2.0}}},
      {"high-Cfs", {.weights = {1.0, 2.0, 2.0, 4.0}}},
  };
}

}  // namespace unitdb
