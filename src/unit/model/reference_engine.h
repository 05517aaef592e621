#ifndef UNIT_MODEL_REFERENCE_ENGINE_H_
#define UNIT_MODEL_REFERENCE_ENGINE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "unit/common/rng.h"
#include "unit/common/status.h"
#include "unit/common/types.h"
#include "unit/core/policy.h"
#include "unit/db/database.h"
#include "unit/obs/timeseries.h"
#include "unit/sched/engine_context.h"
#include "unit/sched/event_queue.h"
#include "unit/sched/metrics.h"
#include "unit/sched/ready_queue.h"
#include "unit/session/session.h"
#include "unit/txn/transaction.h"
#include "unit/workload/spec.h"

namespace unitdb {

/// Deliberately naive, obviously-correct reference implementation of the
/// engine semantics (the executable specification the differential harness
/// in model/diff.h checks the optimized engine against). It replays the
/// same workload + fault schedule and produces bit-identical semantic
/// RunMetrics, per-query outcomes, and window series, but swaps every
/// optimized structure for the simplest possible one:
///
///  - event queue: one flat vector holding every event, popped by a linear
///    scan for the minimum (time, seq) element; events invalidated by
///    preemption/abort/commit are erased by a linear search;
///  - ready queue: a flat vector, dispatched by a linear scan with the
///    same strict (class, deadline, id) priority order; queued-update work
///    and queue depths are recomputed by full sums/counts on every call;
///  - admission: admission control's one question (EngineContext::
///    ProjectAdmission) is answered by scanning the ready vector for the
///    EST, then walking the later-deadline queries in EDF order with and
///    without the candidate's demand and summing the DMF cost of each one
///    it would newly endanger — no order-statistic tree, no cap;
///  - closed-loop sessions: the optimized engine's SessionPool (hash-map
///    retry chains) is mirrored with a flat vector scanned linearly per
///    outcome, reusing only the pure SessionOf / RetryDelay helpers — the
///    spec-level arithmetic — so the differential harness cross-checks the
///    session state machine itself, not a shared implementation;
///  - overload shedding: the eviction victim (minimum (arrival, id) ready
///    query) is found by a full scan of the ready vector;
///  - result cache: the optimized engine's indexed ResultCache (hash map +
///    FIFO stamp deque with lazy tombstones) is mirrored with a flat vector
///    kept in first-population order and scanned linearly for coverage,
///    eviction, and invalidation — identical hit/miss/evict/skip decisions
///    from the simplest possible representation;
///  - locks: no lock table. The holders of an item are worked out from the
///    transactions themselves — those in the ready vector or running with
///    holds_locks() whose items include it (a query share-locks its read
///    set, an update exclusive-locks its item). Blocked transactions hold
///    nothing and a preempted holder goes back to the ready vector, so the
///    scan sees every holder.
///
/// Determinism contract with the optimized engine: both push the same
/// events in the same order (so FIFO tie-breaks at equal timestamps
/// agree), both draw from the engine RNG at the same single site (estimate
/// noise at query-transaction creation), and both accumulate busy seconds
/// and window statistics with the same floating-point operation order.
///
/// Tracing (EngineParams::trace) is not supported and is ignored; the
/// series hook works as in the optimized engine.
class ReferenceEngine final : public EngineContext {
 public:
  /// `workload` and `policy` must outlive the engine; neither is owned.
  ReferenceEngine(const Workload& workload, Policy* policy,
                  EngineParams params);

  ReferenceEngine(const ReferenceEngine&) = delete;
  ReferenceEngine& operator=(const ReferenceEngine&) = delete;

  /// Whether the database accepted the workload's update specs, as in
  /// Engine::workload_status().
  const Status& workload_status() const { return workload_status_; }

  /// Runs the whole workload to completion and returns the collected
  /// metrics. Call at most once. Aborts in every build type when
  /// workload_status() is not OK.
  RunMetrics Run();

  // --- EngineContext ---

  SimTime now() const override { return now_; }
  Database& db() override { return db_; }
  const Database& db() const override { return db_; }
  const EngineParams& params() const override { return params_; }
  const std::vector<OutcomeCounts>& per_class_counts() const override {
    return metrics_.per_class_counts;
  }
  double BusySeconds() const override {
    double busy = metrics_.busy_s;
    if (running_ != nullptr) busy += SimToSeconds(now_ - run_start_);
    return busy;
  }
  AdmissionProjection ProjectAdmission(SimTime deadline, SimDuration extra,
                                       double dmf_cost,
                                       double rejection_cost) const override;
  int64_t PendingUpdatesForItem(ItemId item) const override {
    return pending_updates_per_item_[item];
  }
  TxnId IssueOnDemandUpdate(ItemId item) override;
  void ReportRejectReason(const char* reason) override { (void)reason; }

  /// Exposed for tests: the live transaction table.
  const Transaction& txn(TxnId id) const { return txns_[id]; }

 private:
  /// One scheduled event. Unlike the optimized engine, every trace arrival
  /// is pushed up front, every completion at dispatch and every deadline at
  /// admission, into one list, and an event that can no longer fire is
  /// erased from it by a linear search.
  struct RefEvent {
    SimTime time = 0;
    uint64_t seq = 0;  ///< FIFO tie-break at equal timestamps
    EventType type = EventType::kQueryArrival;
    int64_t payload = 0;
  };

  void Push(SimTime time, EventType type, int64_t payload);
  /// Pops the minimum (time, seq) event by a full linear scan.
  RefEvent PopNext();
  /// Eagerly erases the pending event of `type` for transaction `id`.
  void CancelEvent(EventType type, TxnId id);

  /// Strict (deadline, id) / (id) order within one priority class.
  bool Before(const Transaction& a, const Transaction& b) const;
  /// Dual-priority order: updates always outrank queries.
  bool HigherPriority(const Transaction& a, const Transaction& b) const;
  Transaction* ReadyTop() const;
  void ReadyInsert(Transaction* t);
  void ReadyRemove(Transaction* t);
  int ReadyQueryCount() const;
  int ReadyUpdateCount() const;

  Transaction* NewQueryTxn(const QueryRequest& request);
  Transaction* NewUpdateTxn(ItemId item, SimDuration relative_deadline,
                            bool on_demand);

  void ScheduleInitialEvents();
  void HandleQueryArrival(int64_t query_index);
  void HandleUpdateArrival(ItemId item);
  void HandleCompletion(TxnId id);
  void HandleQueryDeadline(TxnId id);
  void HandleControlTick();
  void HandleFaultEdge(int64_t edge_index);
  void HandleFaultQueryArrival(int64_t injected_index);
  void HandleFaultUpdateArrival(int64_t injected_index);
  void HandleClientResubmit(int64_t resubmit_index);
  void AdmitArrivedQuery(const QueryRequest& request, bool resubmit = false);
  /// Drop-oldest overload shedding (EngineParams::shed_watermark).
  void MaybeShed();
  /// Naive mirror of the result-cache hit path (cache/result_cache.h): the
  /// flat vector is kept in first-population order, so erase-front eviction
  /// and linear membership scans reproduce the optimized cache's decisions
  /// exactly.
  bool TryServeFromCache(Transaction* t);
  bool RefCacheCovers(const Transaction& t) const;
  void RefCachePopulate(ItemId item);
  bool RefCacheInvalidate(ItemId item);
  /// Naive mirror of SessionPool::OnOutcome over the flat chain vector.
  void OnSessionOutcome(Transaction* t, Outcome outcome);

  void TryDispatch();
  void StartRunning(Transaction* t);
  void PreemptRunning();
  void CompleteRunning(Transaction* t);
  /// Every transaction holding a lock on `item`, by a scan of the ready
  /// vector and the running transaction, in txn-id order.
  std::vector<Transaction*> LockHolders(ItemId item) const;
  bool AcquireLocks(Transaction* t);
  void BlockOnLocks(Transaction* t);
  void UnblockAll();
  void RestartQuery(Transaction* t);
  void AbortQuery(Transaction* t, Outcome outcome);
  void ResolveQuery(Transaction* t, Outcome outcome);
  void ReleaseLocksOf(Transaction* t);

  void RecordWindowSample();

  const Workload& workload_;
  Policy* policy_;
  EngineParams params_;
  /// The query trace, materialized in the constructor and scheduled whole
  /// up front — deliberately: the reference keeps the naive push-all
  /// schedule so the differential harness cross-checks the optimized
  /// engine's merge (one staged arrival and the running completion, both
  /// kept out of its timer heap) and slab recycling against the simplest
  /// possible representation.
  std::vector<QueryRequest> queries_;

  Database db_;
  Status workload_status_;
  Rng rng_;

  std::vector<RefEvent> events_;
  uint64_t next_seq_ = 0;
  std::vector<Transaction*> ready_;

  std::deque<Transaction> txns_;  ///< id == index; stable addresses
  std::vector<Transaction*> blocked_;
  std::vector<int64_t> pending_updates_per_item_;

  Transaction* running_ = nullptr;
  SimTime run_start_ = 0;
  SimTime now_ = 0;
  bool ran_ = false;

  std::vector<int32_t> item_outage_;
  double fault_exec_scale_ = 1.0;
  double fault_freshness_shift_ = 0.0;

  /// One in-flight session retry chain (naive counterpart of
  /// SessionPool::Chain; found by linear scan on trace id).
  struct RefChain {
    TxnId trace_id = kInvalidTxn;
    QueryRequest request;
    int retries = 0;
    SimDuration prev_delay = 0;
  };
  std::vector<RefChain> chains_;
  std::vector<SimDuration> session_patience_;
  int64_t retry_decisions_ = 0;
  /// Original request of every scheduled retry, in scheduling order; a
  /// kClientResubmit event's payload indexes it.
  std::vector<QueryRequest> resubmits_;

  WindowSample series_totals_;  ///< run counters at the last sample
  double series_last_busy_ = 0.0;
  SimTime series_last_sample_ = 0;
  std::vector<int64_t> udrop_scratch_;

  /// Naive result cache: item ids in first-population order (front oldest).
  std::vector<ItemId> cache_items_;

  RunMetrics metrics_;
};

}  // namespace unitdb

#endif  // UNIT_MODEL_REFERENCE_ENGINE_H_
