#include "unit/sim/experiment.h"

#include <memory>
#include <utility>

#include "unit/common/thread_pool.h"
#include "unit/obs/counters.h"
#include "unit/obs/trace_sink.h"

namespace unitdb {

StatusOr<ExperimentResult> RunExperiment(const Workload& workload,
                                         const std::string& policy,
                                         const UsmWeights& weights,
                                         const EngineParams& engine,
                                         const PolicyOptions& options) {
  Server::Config config;
  config.policy = policy;
  config.weights = weights;
  config.engine = engine;
  config.options = options;
  auto server = Server::Create(workload, config);
  if (!server.ok()) return server.status();

  ExperimentResult result;
  result.trace = workload.update_trace_name.empty()
                     ? workload.query_trace_name
                     : workload.update_trace_name;
  result.policy = policy;
  result.weights = weights;
  result.metrics = (*server)->Run();
  result.usm = UsmAverage(result.metrics.counts, weights);
  result.breakdown = UsmDecompose(result.metrics.counts, weights);
  return result;
}

StatusOr<ExperimentResult> RunShardedExperiment(
    const Workload& workload, const std::string& policy,
    const UsmWeights& weights, int shards, int jobs,
    const EngineParams& engine, const PolicyOptions& options) {
  ShardedParams params;
  params.shards = shards;
  params.jobs = jobs;
  params.engine = engine;
  params.options = options;
  auto sharded = RunSharded(workload, policy, weights, params);
  if (!sharded.ok()) return sharded.status();

  ExperimentResult result;
  result.trace = workload.update_trace_name.empty()
                     ? workload.query_trace_name
                     : workload.update_trace_name;
  result.policy = policy;
  result.weights = weights;
  result.metrics = std::move(sharded.value().metrics);
  result.usm = sharded.value().usm;
  result.breakdown = sharded.value().breakdown;
  return result;
}

StatusOr<ExperimentResult> RunTracedExperiment(
    const Workload& workload, const std::string& policy,
    const UsmWeights& weights, const ObsOptions& obs,
    const EngineParams& engine, const PolicyOptions& options) {
  EngineParams ep = engine;
  CounterRegistry counters;
  ep.counters = &counters;

  std::unique_ptr<JsonlTraceSink> sink;
  if (!obs.trace_path.empty()) {
    auto opened = JsonlTraceSink::Open(obs.trace_path, &counters);
    if (!opened.ok()) return opened.status();
    sink = std::move(*opened);
    ep.trace = sink.get();
  }

  const bool want_series = obs.series || !obs.series_csv_path.empty() ||
                           !obs.series_json_path.empty();
  TimeSeriesRecorder recorder(weights);
  if (want_series) ep.series = &recorder;

  auto result = RunExperiment(workload, policy, weights, ep, options);
  if (!result.ok()) return result;
  if (want_series) {
    result->series = recorder.samples();
    if (!obs.series_csv_path.empty()) {
      Status s = recorder.WriteCsv(obs.series_csv_path);
      if (!s.ok()) return s;
    }
    if (!obs.series_json_path.empty()) {
      Status s = recorder.WriteJson(obs.series_json_path);
      if (!s.ok()) return s;
    }
  }
  return result;
}

StatusOr<ExperimentResult> RunFaultedExperiment(
    const Workload& workload, const std::string& policy,
    const UsmWeights& weights, const FaultSchedule& schedule,
    const ObsOptions& obs, const EngineParams& engine,
    const PolicyOptions& options, double settle_epsilon) {
  EngineParams ep = engine;
  ep.faults = &schedule;
  auto result = RunTracedExperiment(workload, policy, weights, obs, ep,
                                    options);
  if (!result.ok()) return result;
  if (!schedule.empty() && !result->series.empty()) {
    result->disturbance =
        ComputeDisturbance(result->series, schedule, settle_epsilon);
  }
  return result;
}

StatusOr<std::vector<ExperimentResult>> RunPolicies(
    const Workload& workload, const std::vector<std::string>& policies,
    const UsmWeights& weights, const EngineParams& engine,
    const PolicyOptions& options) {
  std::vector<ExperimentResult> results;
  results.reserve(policies.size());
  for (const auto& policy : policies) {
    auto r = RunExperiment(workload, policy, weights, engine, options);
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

namespace {

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

StatusOr<std::vector<ExperimentResult>> RunFaultedReplicated(
    UpdateVolume volume, UpdateDistribution distribution,
    const std::string& policy, const UsmWeights& weights,
    const FaultScenarioSpec& scenario, int replications, int jobs,
    double scale, uint64_t base_seed, const EngineParams& engine,
    const PolicyOptions& options, double settle_epsilon) {
  if (replications <= 0) {
    return Status::InvalidArgument("replications must be positive");
  }
  // Workload and compiled schedule both derive from the replication's seed.
  // The series is always recorded: the disturbance report is the whole
  // point of a faulted replication.
  return FanOut(replications, jobs, [&](int i) -> StatusOr<ExperimentResult> {
    const uint64_t seed = ReplicationSeed(base_seed, i);
    auto w = MakeStandardWorkload(volume, distribution, scale, seed);
    if (!w.ok()) return w.status();
    auto schedule = FaultSchedule::Compile(scenario, *w, seed);
    if (!schedule.ok()) return schedule.status();
    ObsOptions obs;
    obs.series = true;
    return RunFaultedExperiment(*w, policy, weights, *schedule, obs, engine,
                                options, settle_epsilon);
  });
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
      spec.variants.empty() ? std::vector<GridVariant>{{"naive", {}, {}, {}}}
                            : spec.variants;

  // One task per (trace, variant, policy) cell; a cell folds its
  // replications in order, so no result depends on the worker count.
  const int num_variants = static_cast<int>(variants.size());
  const int num_policies = static_cast<int>(spec.policies.size());
  return FanOut(
      num_traces * num_variants * num_policies, jobs,
      [&](int c) -> StatusOr<GridCellResult> {
        const int trace = c / (num_variants * num_policies);
        const GridVariant& v =
            variants[static_cast<size_t>(c / num_policies % num_variants)];
        GridCellResult cell;
        cell.volume = spec.volumes[static_cast<size_t>(trace % num_volumes)];
        cell.distribution =
            spec.distributions[static_cast<size_t>(trace / num_volumes)];
        cell.variant = v.name;
        cell.result.policy =
            spec.policies[static_cast<size_t>(c % num_policies)];
        cell.result.replications = reps;
        for (int i = 0; i < reps; ++i) {
          const Workload& w = workloads[static_cast<size_t>(trace * reps + i)];
          auto r = spec.shards > 1
                       ? RunShardedExperiment(w, cell.result.policy,
                                              v.weights, spec.shards,
                                              /*jobs=*/1, v.engine, v.options)
                       : RunExperiment(w, cell.result.policy, v.weights,
                                       v.engine, v.options);
          if (!r.ok()) return r.status();
          AccumulateReplication(*r, cell.result);
          cell.runs.push_back(std::move(*r));
        }
        return cell;
      });
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
      {"high-Cr", UsmWeights{1.0, 0.8, 0.2, 0.2}, {}, {}},
      {"high-Cfm", UsmWeights{1.0, 0.2, 0.8, 0.2}, {}, {}},
      {"high-Cfs", UsmWeights{1.0, 0.2, 0.2, 0.8}, {}, {}},
  };
}

std::vector<GridVariant> Table2WeightsAboveOne() {
  return {
      {"high-Cr", UsmWeights{1.0, 4.0, 2.0, 2.0}, {}, {}},
      {"high-Cfm", UsmWeights{1.0, 2.0, 4.0, 2.0}, {}, {}},
      {"high-Cfs", UsmWeights{1.0, 2.0, 2.0, 4.0}, {}, {}},
  };
}

}  // namespace unitdb
