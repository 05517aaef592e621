#ifndef UNIT_SIM_EXPERIMENT_H_
#define UNIT_SIM_EXPERIMENT_H_

#include <string>
#include <vector>

#include "unit/common/stats.h"
#include "unit/common/status.h"
#include "unit/core/usm.h"
#include "unit/faults/schedule.h"
#include "unit/faults/settling.h"
#include "unit/obs/timeseries.h"
#include "unit/sched/engine.h"
#include "unit/sched/metrics.h"
#include "unit/shard/sharded.h"
#include "unit/sim/server.h"
#include "unit/workload/query_trace.h"
#include "unit/workload/update_trace.h"

namespace unitdb {

/// Everything one (workload, policy, weights) run produced.
struct ExperimentResult {
  std::string trace;   ///< e.g. "med-unif"
  std::string policy;  ///< e.g. "unit"
  UsmWeights weights;
  RunMetrics metrics;
  double usm = 0.0;  ///< average USM (Eq. 5)
  UsmBreakdown breakdown;
  /// Window time series (RunTracedExperiment with ObsOptions::series; empty
  /// otherwise).
  std::vector<WindowSample> series;
  /// Dynamic-response summary (RunFaultedExperiment with a non-empty
  /// schedule and the series recorded; invalid otherwise).
  DisturbanceReport disturbance;
};

/// Runs `policy` on `workload` under `weights`. Fails on an unknown policy.
StatusOr<ExperimentResult> RunExperiment(const Workload& workload,
                                         const std::string& policy,
                                         const UsmWeights& weights,
                                         const EngineParams& engine = {},
                                         const PolicyOptions& options = {});

/// RunExperiment over the sharded multi-engine runner (shard/sharded.h):
/// items and queries are partitioned across `shards` hash-routed shards,
/// each running its own full server stack, executed on `jobs` workers.
/// The headline metrics are the merged global view (parent-level Eq. 5
/// accounting after the CrossShardJoin barrier); results are bit-identical
/// for any `jobs`, and `shards=1` reproduces RunExperiment exactly.
StatusOr<ExperimentResult> RunShardedExperiment(
    const Workload& workload, const std::string& policy,
    const UsmWeights& weights, int shards, int jobs = 1,
    const EngineParams& engine = {}, const PolicyOptions& options = {});

/// Observability attachments for one run. RunTracedExperiment owns the
/// actual sinks/recorders for the duration of the run; the engine only ever
/// sees non-owning pointers (EngineParams::{trace, series, counters}).
struct ObsOptions {
  /// Write the JSONL event trace here ("" = no trace sink).
  std::string trace_path;
  /// Record the per-control-window time series into ExperimentResult::series.
  bool series = false;
  /// Also export the series ("" = don't). Either implies `series`.
  std::string series_csv_path;
  std::string series_json_path;
};

/// RunExperiment with tracing/telemetry attached per `obs`. The counter
/// registry snapshot lands in RunMetrics::obs_counters. With a
/// default ObsOptions this is exactly RunExperiment (no hooks attached).
StatusOr<ExperimentResult> RunTracedExperiment(
    const Workload& workload, const std::string& policy,
    const UsmWeights& weights, const ObsOptions& obs,
    const EngineParams& engine = {}, const PolicyOptions& options = {});

/// RunTracedExperiment with `schedule` attached (EngineParams::faults).
/// When the series is recorded and the schedule is non-empty, the result's
/// DisturbanceReport (USM dip depth, settling time, per-window
/// decomposition inside the fault envelope) is computed with
/// `settle_epsilon` as the settling band (fraction of the dip). An empty schedule is a strict
/// no-op: metrics are bit-identical to RunTracedExperiment.
StatusOr<ExperimentResult> RunFaultedExperiment(
    const Workload& workload, const std::string& policy,
    const UsmWeights& weights, const FaultSchedule& schedule,
    const ObsOptions& obs = {}, const EngineParams& engine = {},
    const PolicyOptions& options = {}, double settle_epsilon = 0.25);

/// Runs `replications` faulted standard workloads on FanOut's `jobs` workers
/// (jobs <= 0: one per hardware thread). Replication i builds its workload from
/// ReplicationSeed(base_seed, i) and compiles `scenario` against it with
/// that same seed, so each replication draws its own injection stream and
/// the per-replication results (returned in replication order, series and
/// disturbance included) are bit-identical for any jobs count.
StatusOr<std::vector<ExperimentResult>> RunFaultedReplicated(
    UpdateVolume volume, UpdateDistribution distribution,
    const std::string& policy, const UsmWeights& weights,
    const FaultScenarioSpec& scenario, int replications, int jobs = 1,
    double scale = 1.0, uint64_t base_seed = 42,
    const EngineParams& engine = {}, const PolicyOptions& options = {},
    double settle_epsilon = 0.25);

/// Runs several policies over one workload (same weights, same engine).
StatusOr<std::vector<ExperimentResult>> RunPolicies(
    const Workload& workload, const std::vector<std::string>& policies,
    const UsmWeights& weights, const EngineParams& engine = {},
    const PolicyOptions& options = {});

/// Builds the paper's standard evaluation workload: the cello-like query
/// trace plus one of Table 1's nine update traces. `scale` multiplies the
/// default 2000 s duration (benches use < 1 for quick runs).
StatusOr<Workload> MakeStandardWorkload(UpdateVolume volume,
                                        UpdateDistribution distribution,
                                        double scale = 1.0,
                                        uint64_t seed = 42);

/// Aggregate of several independent replications (different workload
/// seeds) of one grid cell — use for error bars.
struct ReplicatedResult {
  std::string trace;
  std::string policy;
  int replications = 0;
  RunningStat usm;
  RunningStat success_ratio;
  RunningStat rejection_ratio;
  RunningStat dmf_ratio;
  RunningStat dsf_ratio;
};

/// Workload seed of replication `i` of a cell with base seed `base_seed`.
/// Shared by every replicated runner so that replication i of a cell builds
/// the same workload in each; kept as the historical affine derivation
/// (base + 100*i) so published trace numbers stay stable. (SplitMix64 in
/// common/rng.h is the tool of choice when a future derivation needs
/// decorrelated streams rather than continuity.)
uint64_t ReplicationSeed(uint64_t base_seed, int replication);

/// A named setting a grid runs every (trace, policy) under: the weights that
/// score the run and the engine and policy parameters it runs with (e.g. a
/// Table 2 weighting, an ablation's parameter, a dispatch discipline).
struct GridVariant {
  std::string name;
  UsmWeights weights;
  EngineParams engine;
  PolicyOptions options;
};

/// A (trace x variant x policy) sweep: the cross product of every listed
/// volume, distribution, variant and policy, each cell replicated
/// `replications` times. The paper's Table 1 grid is the default trace set.
struct GridSpec {
  std::vector<UpdateVolume> volumes = {UpdateVolume::kLow,
                                       UpdateVolume::kMedium,
                                       UpdateVolume::kHigh};
  std::vector<UpdateDistribution> distributions = {
      UpdateDistribution::kUniform, UpdateDistribution::kPositive,
      UpdateDistribution::kNegative};
  std::vector<std::string> policies = {"unit"};
  /// Settings swept per (trace, policy). Empty means one variant, "naive":
  /// the naive weighting with default engine and policy parameters.
  std::vector<GridVariant> variants;
  int replications = 1;
  double scale = 1.0;
  uint64_t base_seed = 42;
  /// Shards per cell (shard/sharded.h). 1 = monolithic engine; > 1 routes
  /// every replication through the sharded runner (sequential inside the
  /// cell — grid cells already fan out across the pool).
  int shards = 1;
};

/// One cell of a RunGrid sweep; `result.trace` / `result.policy` identify
/// the cell together with the variant it ran under.
struct GridCellResult {
  UpdateVolume volume = UpdateVolume::kLow;
  UpdateDistribution distribution = UpdateDistribution::kUniform;
  std::string variant;  ///< GridVariant::name
  ReplicatedResult result;
  std::vector<ExperimentResult> runs;  ///< in replication order
};

/// The grid's standard workloads on FanOut's `jobs` workers, trace-major
/// (distribution, then volume) and replication-minor; replication i uses
/// seed ReplicationSeed(base_seed, i).
StatusOr<std::vector<Workload>> MakeGridWorkloads(const GridSpec& spec,
                                                  int jobs = 1);

/// Runs the grid's cells on MakeGridWorkloads(spec)'s `workloads`, shared
/// read-only, on FanOut's `jobs` workers (jobs <= 0: one per hardware
/// thread). Cells come back distribution-major, then volume, variant,
/// policy (the paper's presentation order), each folding its replications
/// in order, so every cell is bit-identical for any `jobs`.
StatusOr<std::vector<GridCellResult>> RunGrid(
    const GridSpec& spec, const std::vector<Workload>& workloads,
    int jobs = 1);

/// MakeGridWorkloads(spec, jobs), then RunGrid on those workloads.
StatusOr<std::vector<GridCellResult>> RunGrid(const GridSpec& spec,
                                              int jobs = 1);

/// The six weight settings of the paper's Table 2 as grid variants (rows
/// named "high-Cr"/"high-Cfm"/"high-Cfs", first with penalties < 1, then
/// > 1).
std::vector<GridVariant> Table2WeightsBelowOne();
std::vector<GridVariant> Table2WeightsAboveOne();

}  // namespace unitdb

#endif  // UNIT_SIM_EXPERIMENT_H_
