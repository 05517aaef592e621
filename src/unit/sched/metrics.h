#ifndef UNIT_SCHED_METRICS_H_
#define UNIT_SCHED_METRICS_H_

#include <cstdint>
#include <vector>

#include "unit/common/stats.h"
#include "unit/common/types.h"
#include "unit/txn/outcome.h"

namespace unitdb {

/// How the sharded runner folds one field of the per-shard metrics into the
/// merged view (MergeShardMetrics, shard/sharded.h).
enum class ShardMerge {
  kSum,      ///< summed over shards
  kMax,      ///< largest shard value
  kStat,     ///< RunningStat::Merge
  kPerItem,  ///< element-wise sum over the item ids every shard has
  kSame,     ///< identical on every shard; shard 0's copy stands
  kJoin,     ///< recomputed over the joined parent queries
};

/// What the differential oracle (model/diff.h) does with one field.
enum class OracleRole {
  kCompared,   ///< must equal the reference engine's value bit for bit
  kTelemetry,  ///< implementation telemetry; the two engines differ by design
};

/// The RunMetrics field table, X(type, name, ShardMerge, OracleRole), in
/// declaration order. It declares the members, so every field has exactly
/// one line here; adding a metric takes that line plus the engine code that
/// increments it, and the shard merge and the oracle pick it up.
#define UNIT_RUN_METRICS_FIELDS(X)                                            \
  /* Outcome counts (they feed the USM), and the same per preference class   \
     (index = preference_class, sized to the largest class seen). */         \
  X(OutcomeCounts, counts, kJoin, kCompared)                                 \
  X(std::vector<OutcomeCounts>, per_class_counts, kJoin, kCompared)         \
  /* Response time (s) and observed Eq. 1 read-set freshness of committed    \
     queries; arrival-to-commit latency of update transactions (s). */       \
  X(RunningStat, query_response_s, kJoin, kCompared)                         \
  X(RunningStat, query_freshness, kJoin, kCompared)                          \
  X(RunningStat, update_latency_s, kStat, kCompared)                         \
  /* Simulated run length and CPU busy time (aggregate over shard CPUs). */  \
  X(double, duration_s, kSame, kCompared)                                    \
  X(double, busy_s, kSum, kCompared)                                         \
  /* Engine hot path: events handled (staged arrivals, completions and       \
     heap pops, dead deadlines included), deadlines tombstoned by an early   \
     commit or shed, heap compaction passes, dead events removed, largest    \
     ready-queue size. */                                                    \
  X(int64_t, events_processed, kSum, kTelemetry)                             \
  X(int64_t, events_cancelled, kSum, kTelemetry)                             \
  X(int64_t, event_compactions, kSum, kTelemetry)                            \
  X(int64_t, events_compacted, kSum, kTelemetry)                             \
  X(int, peak_ready_depth, kMax, kTelemetry)                                 \
  /* Transaction slab and read sets: peak live transactions (bounds the      \
     arena whatever the run length), slots ever allocated, slots recycled,   \
     read sets held inline, read sets spilled to the heap. */                \
  X(int64_t, txn_live_peak, kSum, kTelemetry)                                \
  X(int64_t, txn_slots_created, kSum, kTelemetry)                            \
  X(int64_t, txn_released, kSum, kTelemetry)                                 \
  X(int64_t, readset_inline, kSum, kTelemetry)                               \
  X(int64_t, readset_spill, kSum, kTelemetry)                                \
  /* Fault layer (0 without a schedule): start/stop edges processed,         \
     injected query arrivals, burst update deliveries, deliveries swallowed  \
     by outages. */                                                          \
  X(int64_t, fault_edges, kSum, kCompared)                                   \
  X(int64_t, fault_injected_queries, kSum, kCompared)                        \
  X(int64_t, fault_injected_updates, kSum, kCompared)                        \
  X(int64_t, fault_suppressed_updates, kSum, kCompared)                      \
  /* Closed-loop sessions (0 when sessions and shedding are off): requests   \
     entering a session, resubmissions, requests that committed, requests    \
     given up, ready queries evicted by shedding, and the client-observed    \
     retry delay (think + backoff + jitter, s). */                           \
  X(int64_t, session_requests, kSum, kCompared)                              \
  X(int64_t, session_retries, kSum, kCompared)                               \
  X(int64_t, session_successes, kSum, kCompared)                             \
  X(int64_t, session_abandons, kSum, kCompared)                              \
  X(int64_t, queries_shed, kSum, kCompared)                                  \
  X(RunningStat, session_retry_delay_s, kStat, kCompared)                    \
  /* Result cache (0 when capacity is 0): arrivals answered from cache,      \
     arrivals with an uncovered read set, entries erased by update           \
     installs, covered arrivals too stale to serve. */                       \
  X(int64_t, cache_hits, kSum, kCompared)                                    \
  X(int64_t, cache_misses, kSum, kCompared)                                  \
  X(int64_t, cache_invalidations, kSum, kCompared)                           \
  X(int64_t, cache_stale_skips, kSum, kCompared)                             \
  /* Preemptions, 2PL-HP aborts of shared holders, update commits, ODU       \
     refreshes, update txns created (periodic + on demand), source arrivals  \
     shed by frequency modulation. */                                        \
  X(int64_t, preemptions, kSum, kCompared)                                   \
  X(int64_t, lock_restarts, kSum, kCompared)                                 \
  X(int64_t, update_commits, kSum, kCompared)                                \
  X(int64_t, on_demand_updates, kSum, kCompared)                             \
  X(int64_t, updates_generated, kSum, kCompared)                             \
  X(int64_t, updates_dropped, kSum, kCompared)                               \
  /* Per-item counters copied from the database at end of run. */            \
  X(std::vector<int64_t>, per_item_accesses, kPerItem, kCompared)           \
  X(std::vector<int64_t>, per_item_applied_updates, kPerItem, kCompared)

/// Everything one engine run records. Outcome counts feed the USM; the rest
/// supports the paper's distribution plots (Fig. 3), the ratio decomposition
/// (Fig. 6), and general sanity reporting.
struct RunMetrics {
#define UNIT_DECLARE_FIELD(type, name, merge, oracle) type name{};
  UNIT_RUN_METRICS_FIELDS(UNIT_DECLARE_FIELD)
#undef UNIT_DECLARE_FIELD

  double Utilization() const {
    return duration_s > 0.0 ? busy_s / duration_s : 0.0;
  }
  bool operator==(const RunMetrics&) const = default;
};

/// One RunMetrics table row as ForEachRunMetricsField hands it out; the
/// member and the tags are compile-time constants.
template <auto Member, ShardMerge Merge, OracleRole Oracle>
struct RunMetricsField {
  static constexpr auto member = Member;
  static constexpr ShardMerge merge = Merge;
  static constexpr OracleRole oracle = Oracle;
  const char* name;
};

/// Calls `f(RunMetricsField<...>{name})` for every field, in declaration
/// order.
template <typename F>
constexpr void ForEachRunMetricsField(F&& f) {
#define UNIT_VISIT_FIELD(type, name, merge, oracle)                     \
  f(RunMetricsField<&RunMetrics::name, ShardMerge::merge,              \
                    OracleRole::oracle>{#name});
  UNIT_RUN_METRICS_FIELDS(UNIT_VISIT_FIELD)
#undef UNIT_VISIT_FIELD
}

}  // namespace unitdb

#endif  // UNIT_SCHED_METRICS_H_
