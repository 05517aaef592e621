#ifndef UNIT_SHARD_SHARDED_H_
#define UNIT_SHARD_SHARDED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "unit/common/status.h"
#include "unit/common/types.h"
#include "unit/core/usm.h"
#include "unit/faults/scenario.h"
#include "unit/obs/timeseries.h"
#include "unit/sched/engine_context.h"
#include "unit/sched/metrics.h"
#include "unit/shard/router.h"
#include "unit/sim/server.h"
#include "unit/txn/outcome.h"
#include "unit/workload/spec.h"

namespace unitdb {

/// Sharded multi-engine execution: data items are partitioned across N
/// shards by ShardRouter, each shard runs a full independent server stack
/// (Engine + Database + LockManager + AdmissionIndex + policy controllers)
/// over its sub-workload, and shards execute in parallel through FanOut
/// (common/fan_out.h). Every per-shard seed derives from the caller's base
/// seeds via ShardSeed, and all merging folds in a deterministic order, so
/// the result is bit-identical for any `jobs` count — and, at shards=1,
/// bit-identical to the monolithic engine (the differential oracle in
/// model/diff.h pins both properties).
struct ShardedParams {
  /// Number of shards (clamped to >= 1). shards=1 is the monolithic
  /// degenerate case: one sub-workload identical to the input.
  int shards = 1;
  /// FanOut workers executing shards (1: sequential in shard order; <= 0:
  /// one per hardware thread). Purely a wall-clock knob; results are
  /// bit-identical for any value.
  int jobs = 1;
  /// Per-shard engine template. `seed` is re-derived per shard via
  /// ShardSeed; the observability and fault pointers are ignored (the
  /// sharded runner wires its own).
  EngineParams engine;
  /// Per-shard policy template. `unit.seed` is re-derived per shard.
  PolicyOptions options;
  /// Run the deliberately naive model/reference_engine.h per shard instead
  /// of the optimized engine, split the workload by copying and join the
  /// parents by table and sort (model/reference_shard.h) — the sharded side
  /// of the differential oracle.
  bool reference_engines = false;
  /// Record per-shard window series and the merged series.
  bool record_series = false;
  /// Fault scenario compiled per shard against its sub-workload ("" = no
  /// fault layer). With shards=1 the compiled schedule is identical to the
  /// monolithic compilation (same workload, same seed).
  const FaultScenarioSpec* scenario = nullptr;
  /// Run seed mixed into FaultSchedule::Compile.
  uint64_t fault_seed = 42;
  /// Write shard-tagged JSONL traces here ("" = no tracing). Each shard
  /// keeps its events in memory (KeepingSink); after the runs one writer
  /// tags and writes them as shard<k>.jsonl per shard, each a trace_check
  /// input, plus merged.jsonl, the global view in (time, shard, emission
  /// order) — deterministic for any jobs count. merged.jsonl is for reading
  /// only: txn ids repeat across shards, so it is no trace_check input.
  std::string trace_dir{};
  /// Self-test defect (differential-harness support): shard 0's policy
  /// wrapper vetoes its 8th admitted query, a guaranteed divergence the
  /// sharded oracle must catch.
  bool perturb_admit_off_by_one = false;
};

/// One joined parent query after the CrossShardJoin barrier.
struct ShardQueryRecord {
  /// Index of the parent query in the (materialized) input trace;
  /// kInvalidTxn for fault-injected queries, which are their own single-sub
  /// parents.
  TxnId trace_id = kInvalidTxn;
  Outcome outcome = Outcome::kPending;
  /// min over sub-query read-set freshness — exactly the monolithic Eq. 1
  /// value, since Database::QueryFreshness is itself a min over items.
  double observed_freshness = -1.0;
  /// max over sub-query commit times (committed parents only).
  SimTime commit_time = -1;
  /// Simulated time the last sub-query resolved (any outcome).
  SimTime resolve_time = -1;
  /// Summed 2PL-HP restarts over all sub-queries.
  int restarts = 0;
  int preference_class = 0;
  /// Sub-queries this parent was split into (1 = single-shard query).
  int subqueries = 1;
};

/// The input workload split into one sub-workload per shard.
struct ShardPartition {
  std::vector<Workload> shards;
  /// Per parent query: how many shards its read set touched.
  std::vector<int> sub_count;
  int64_t cross_shard_queries = 0;  ///< parents with sub_count > 1
  int64_t subqueries = 0;           ///< total sub-queries emitted
};

/// Splits `w` across `router.num_shards()` shards. Every shard keeps the
/// global item-id space (num_items unchanged; non-owned items are simply
/// never updated or read there), updates go to their owning shard in
/// original order, and each query becomes one sub-query per touched shard:
/// read set restricted to the shard's items (original order preserved),
/// arrival / deadline / freshness requirement / preference class copied,
/// service demand divided proportionally to the sub read-set size (each sub
/// clamped to >= 1 tick, remainder on the last touched shard). A query
/// whose read set lies on one shard passes through verbatim. Sub-query `id`
/// carries the parent's trace index so per-shard results can be joined
/// back. With one shard the single sub-workload yields the input trace
/// query for query.
///
/// No sub-query is stored. One counting pass over the parent's cursor fills
/// `sub_count`, `subqueries`, `cross_shard_queries` and each shard's query
/// count; each shard's `query_source` is then a view whose cursor re-reads
/// the parent's own cursor and yields only that shard's sub-queries, so a
/// streamed workload partitions exactly like its materialized twin.
/// Contract:
///  - A view points at `w`, as the cursor from Workload::NewQueryCursor()
///    does: `w` must outlive the partition and every copy of its
///    sub-workloads.
///  - Every view re-reads the whole parent: O(shards x parents) cursor steps
///    over all shards, and a streamed parent is generated once per shard.
StatusOr<ShardPartition> PartitionWorkload(const Workload& w,
                                           const ShardRouter& router);

/// Dominant-penalty fold of two sub-query outcomes (the paper's Fig. 2
/// order: reject > deadline miss > stale): a parent succeeds only if every
/// sub-query met both its deadline and its freshness bound.
Outcome CrossShardJoin(Outcome a, Outcome b);

/// Folds one more shard's metrics into `merged` by each field's ShardMerge
/// tag (sched/metrics.h). kJoin fields are left for the parent join.
void MergeShardMetrics(RunMetrics& merged, const RunMetrics& shard);

/// Folds per-shard window series into the merged global series: samples
/// with the same window-end instant combine by each field's WindowMerge tag
/// (obs/timeseries.h), in (t, shard, index) order, so the result is the same
/// for any jobs count. A single shard's series passes through unchanged.
std::vector<WindowSample> MergeSeries(
    const std::vector<std::vector<WindowSample>>& per_shard,
    const UsmWeights& weights);

/// Everything one sharded run produced: per-shard views plus the merged
/// global view with parent-level (Eq. 5) outcome accounting.
struct ShardedResult {
  /// Merged global view (MergeShardMetrics). Outcome counts, per-class
  /// counts, and the response/freshness stats are parent-level (post-join,
  /// in deterministic merged resolution order). busy_s sums over the shard
  /// CPUs, so Utilization() can exceed 1.
  RunMetrics metrics;
  double usm = 0.0;  ///< average USM (Eq. 5) over parent outcomes
  UsmBreakdown breakdown;
  /// Per-shard RunMetrics, sub-query level (shard-local accounting).
  std::vector<RunMetrics> per_shard;
  /// Merged window series (record_series; MergeSeries).
  std::vector<WindowSample> merged_series;
  std::vector<std::vector<WindowSample>> per_shard_series;
  /// Joined parent records in merged resolution order (the order the
  /// merged outcome counts and stats were folded in): by the (resolve time,
  /// shard, position) of each parent's last sub-query, so ties in resolve
  /// time go to the lower shard.
  std::vector<ShardQueryRecord> queries;
  int64_t cross_shard_queries = 0;
  int64_t subqueries = 0;
};

/// Partitions `workload`, runs one engine per shard (in parallel when
/// params.jobs != 1), joins split queries at the CrossShardJoin barrier, and
/// merges metrics / series / traces into the global view. Fails on an
/// unknown policy, a fault scenario that does not compile, or trace I/O
/// errors.
StatusOr<ShardedResult> RunSharded(const Workload& workload,
                                   const std::string& policy,
                                   const UsmWeights& weights,
                                   const ShardedParams& params = {});

}  // namespace unitdb

#endif  // UNIT_SHARD_SHARDED_H_
