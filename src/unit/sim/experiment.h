#ifndef UNIT_SIM_EXPERIMENT_H_
#define UNIT_SIM_EXPERIMENT_H_

#include <optional>
#include <string>
#include <vector>

#include "unit/common/stats.h"
#include "unit/common/status.h"
#include "unit/core/usm.h"
#include "unit/faults/scenario.h"
#include "unit/faults/settling.h"
#include "unit/obs/timeseries.h"
#include "unit/obs/trace_event.h"
#include "unit/sched/engine.h"
#include "unit/sched/metrics.h"
#include "unit/sim/server.h"
#include "unit/workload/query_trace.h"
#include "unit/workload/update_trace.h"

namespace unitdb {

/// Observability attachments for one run. RunExperiment owns the sinks and
/// recorders for the duration of the run; the engine only ever sees
/// non-owning pointers (EngineParams::{trace, series}).
struct ObsOptions {
  /// Write the JSONL event trace here ("" = no trace sink).
  std::string trace_path{};
  /// Record the per-control-window time series into ExperimentResult::series.
  bool series = false;
  /// Also export the series as CSV ("" = don't); implies `series`.
  std::string series_csv_path{};
  /// Keep the trace events of these types in ExperimentResult::events, in
  /// memory through a KeepingSink (empty = keep none).
  std::vector<TraceEventType> events{};
};

/// Everything one run takes except its workload. Every member has an
/// initializer, so a designated initializer may leave any of them out.
struct RunRequest {
  std::string policy = "unit";
  UsmWeights weights{};
  EngineParams engine{};
  PolicyOptions options{};
  /// Fault scenario, compiled against the workload with `fault_seed`.
  /// Absent: no fault layer. Present, even empty: its compiled schedule is
  /// attached (EngineParams::faults; an empty one is a strict no-op), and
  /// when the series is recorded and the schedule is non-empty the result
  /// carries its DisturbanceReport.
  std::optional<FaultScenarioSpec> scenario{};
  uint64_t fault_seed = 42;
  /// 0: one monolithic engine. >= 1: the sharded runner (shard/sharded.h):
  /// items and queries split across `shards` hash-routed shards, each a full
  /// server stack, run on `jobs` workers. Its metrics are the merged global
  /// view (parent-level Eq. 5 accounting after the CrossShardJoin barrier),
  /// bit-identical for any `jobs`, and shards=1 reproduces the monolithic
  /// run. It compiles the scenario per shard and wires its own trace,
  /// series and faults, so a sharded request may set no EngineParams
  /// pointer, ObsOptions file or kept event.
  int shards = 0;
  int jobs = 1;
  ObsOptions obs{};
};

/// Everything one run produced.
struct ExperimentResult {
  std::string trace;   ///< e.g. "med-unif"
  std::string policy;  ///< e.g. "unit"
  UsmWeights weights;
  RunMetrics metrics;
  double usm = 0.0;  ///< average USM (Eq. 5)
  UsmBreakdown breakdown;
  /// Window time series (ObsOptions::series; empty otherwise).
  std::vector<WindowSample> series;
  /// Trace events of the ObsOptions::events types, in emission order.
  std::vector<TraceEvent> events;
  /// Dynamic-response summary (a non-empty fault schedule with the series
  /// recorded; invalid otherwise).
  DisturbanceReport disturbance;
};

/// Serves `request` on `workload`. Fails on an unknown policy, a scenario
/// that does not compile, an I/O error, or a request its path cannot honour
/// (InvalidArgument).
StatusOr<ExperimentResult> RunExperiment(const Workload& workload,
                                         const RunRequest& request);

/// RunExperiment of `request` under each of `policies` in turn.
StatusOr<std::vector<ExperimentResult>> RunPolicies(
    const Workload& workload, const std::vector<std::string>& policies,
    const RunRequest& request = {});

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

/// A named setting a grid runs every (trace, policy) under: everything a
/// run takes except its workload (e.g. a Table 2 weighting, an ablation's
/// parameter, a fault scenario). The grid's policy axis sets the request's
/// policy and the replication seed its fault seed. Its ObsOptions may keep
/// the series and events but name no file, which every replication would
/// write.
struct GridVariant {
  std::string name;
  RunRequest request;
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
/// read-only, one task per (cell, replication) on FanOut's `jobs` workers
/// (jobs <= 0: one per hardware thread). Replication i compiles its
/// variant's fault scenario with seed ReplicationSeed(base_seed, i). Cells
/// come back distribution-major, then volume, variant, policy (the paper's
/// presentation order), each folding its replications in order, so every
/// cell is bit-identical for any `jobs`.
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
