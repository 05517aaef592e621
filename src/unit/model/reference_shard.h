#ifndef UNIT_MODEL_REFERENCE_SHARD_H_
#define UNIT_MODEL_REFERENCE_SHARD_H_

#include <vector>

#include "unit/common/status.h"
#include "unit/model/diff.h"
#include "unit/sched/metrics.h"
#include "unit/shard/router.h"
#include "unit/shard/sharded.h"
#include "unit/workload/spec.h"

namespace unitdb {

/// The sharded oracle's naive split and join (model/ holds the deliberately
/// naive copy of each idea). RunSharded uses both when
/// ShardedParams::reference_engines is set, so a sharded diff cross-checks
/// the production split (views over the parent trace) and join (one ordered
/// merge) against them.

/// PartitionWorkload's contract, by copying: every sub-query is stored in
/// its shard's own `queries` vector.
StatusOr<ShardPartition> ReferencePartitionWorkload(const Workload& w,
                                                    const ShardRouter& router);

/// The parent join by table and sort: folds every shard's records into one
/// aggregate per parent (shard-major; with `closed_loop`, only each shard's
/// last record per parent), sorts the parents by the lexicographic max of
/// (resolve time, shard, position) over their sub-queries, then folds them
/// into `merged`'s parent-level fields and appends their records to `out`
/// in that order. Fails on a record naming an unknown parent, or a parent
/// that did not join exactly `sub_count` records.
Status ReferenceJoinParents(
    const std::vector<const std::vector<QueryRecord>*>& shards,
    const std::vector<int>& sub_count, bool closed_loop, RunMetrics* merged,
    std::vector<ShardQueryRecord>* out);

}  // namespace unitdb

#endif  // UNIT_MODEL_REFERENCE_SHARD_H_
