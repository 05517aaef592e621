#ifndef UNIT_SCHED_ENGINE_H_
#define UNIT_SCHED_ENGINE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "unit/common/rng.h"
#include "unit/common/types.h"
#include "unit/core/admission.h"
#include "unit/core/policy.h"
#include "unit/db/database.h"
#include "unit/db/lock_manager.h"
#include "unit/obs/timeseries.h"
#include "unit/sched/engine_context.h"
#include "unit/sched/event_queue.h"
#include "unit/sched/metrics.h"
#include "unit/sched/ready_queue.h"
#include "unit/session/session.h"
#include "unit/txn/transaction.h"
#include "unit/txn/txn_slab.h"
#include "unit/workload/query_source.h"
#include "unit/workload/spec.h"

namespace unitdb {

class CounterRegistry;
class FaultSchedule;
struct FaultEdge;
class TraceSink;
enum class TraceEventType : uint8_t;

/// Single-CPU discrete-event web-database server: dual-priority preemptive
/// EDF dispatch, 2PL-HP concurrency control, firm query deadlines, lag-based
/// freshness, and policy hooks for admission control and update frequency
/// modulation. Deterministic for a fixed (workload, policy, params) triple.
///
/// This is the optimized EngineContext implementation (admission index,
/// intrusive ready-queue heaps, lazy event cancellation); the semantically
/// identical naive implementation lives in model/reference_engine.h.
class Engine final : public EngineContext {
 public:
  /// `workload` and `policy` must outlive the engine; neither is owned.
  Engine(const Workload& workload, Policy* policy, EngineParams params);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs the whole workload to completion and returns the collected
  /// metrics. Call at most once.
  RunMetrics Run();

  // --- introspection for policies (valid during hooks) ---

  SimTime now() const override { return now_; }
  Database& db() override { return db_; }
  const Database& db() const override { return db_; }
  const EngineParams& params() const override { return params_; }

  /// Cumulative per-preference-class outcome counters (empty until the
  /// first query resolves; index = preference_class).
  const std::vector<OutcomeCounts>& per_class_counts() const override {
    return metrics_.per_class_counts;
  }

  /// CPU busy time so far, seconds, including the in-progress slice of the
  /// currently running transaction (feedback controllers diff snapshots to
  /// measure windowed utilization).
  double BusySeconds() const override {
    double busy = metrics_.busy_s;
    if (running_ != nullptr) busy += SimToSeconds(now_ - run_start_);
    return busy;
  }

  /// Remaining service demand of the transaction on the CPU (0 if idle).
  SimDuration RunningRemaining() const override;
  /// Total remaining demand of queued (not running) update transactions.
  SimDuration QueuedUpdateWork() const override {
    return ready_.TotalUpdateWork();
  }

  /// Admission control's queue sums, answered from the admission index in
  /// O(log N_rq) (see EngineContext).
  SimDuration EarlierQueryWork(SimTime deadline) const override {
    return admission_index_.EarlierWork(deadline);
  }
  int64_t LaterQueryCount(SimTime deadline) const override {
    return admission_index_.LaterCount(deadline);
  }
  int64_t EndangeredQueryCount(SimTime deadline, SimTime start,
                               SimDuration extra) const override {
    return admission_index_.CountEndangered(deadline, start, start + extra);
  }

  /// The online admission index over the queued queries (perfbench times
  /// its set-up through this).
  const AdmissionIndex& admission_index() const { return admission_index_; }

  /// Update transactions for `item` currently in the system (queued,
  /// blocked, or running) — lets ODU avoid issuing duplicate refreshes.
  int64_t PendingUpdatesForItem(ItemId item) const override {
    return pending_updates_per_item_[item];
  }

  /// Creates an on-demand update transaction for `item` right now, with an
  /// urgent internal deadline so it outranks queued periodic updates.
  /// Returns its transaction id.
  TxnId IssueOnDemandUpdate(ItemId item) override;

  /// Records why the policy is about to reject the arriving query ("deadline"
  /// / "usm"; must point at static storage). Consumed by the reject trace
  /// event of the next ResolveQuery; policies without a reason stay silent
  /// and the event carries "policy". No-op when tracing is off.
  void ReportRejectReason(const char* reason) override {
    if (params_.trace != nullptr) pending_reject_reason_ = reason;
  }

 private:
  /// Creates the query transaction for `request`, applying any active fault
  /// adjustments (service slowdown, freshness shift). Shared by workload,
  /// injected and resubmitted arrivals.
  Transaction* NewQueryTxn(const QueryRequest& request);
  Transaction* NewUpdateTxn(ItemId item, SimDuration relative_deadline,
                            bool on_demand);

  /// Ready-queue mutations go through these so the admission index stays in
  /// sync with the set of queued queries.
  void ReadyInsert(Transaction* t);
  void ReadyRemove(Transaction* t);

  /// Whether a scheduled event's handler would no-op if popped now; the
  /// predicate compaction uses to drop tombstones. Mirrors the staleness
  /// checks in HandleCompletion / HandleQueryDeadline exactly.
  bool EventIsDead(const Event& e) const;

  bool tracing() const { return params_.trace != nullptr; }
  /// Trace emission helpers, one per event kind. Each is called only when
  /// tracing is on, and all are defined noinline/cold in engine.cc so the
  /// ~170-byte TraceEvent construction never bloats a hot handler's frame
  /// on trace-off runs (measurably ~4% engine throughput).
  /// End-of-run obs epilogue (final window sample, sink flush, registry
  /// snapshot); called from Run() only when some hook is attached.
  void FinalizeObservability();
  void TraceQueryArrival(const Transaction& t);
  void TraceSimpleEvent(TraceEventType type, TxnId txn);
  void TraceItemEvent(TraceEventType type, ItemId item);
  void TraceUpdateApply(const Transaction& t);
  /// Emits the terminal trace event (reject / deadline-miss / commit / shed)
  /// for a query being resolved.
  void TraceQueryResolution(const Transaction& t, Outcome outcome);
  /// Emits a kSessionRetry / kSessionAbandon event for a session decision.
  void TraceSessionEvent(TraceEventType type, const Transaction& t,
                         const SessionDecision& d);
  /// Emits the kCacheInvalidate event for an erased cache entry.
  void TraceCacheInvalidate(ItemId item, TxnId txn);
  /// Emits the kFaultStart / kFaultStop event for a processed edge.
  void TraceFaultEdge(const FaultEdge& edge);
  /// Appends one WindowSample to params_.series (no-op when unset).
  void RecordWindowSample();

  void ScheduleInitialEvents();
  void HandleQueryArrival(int64_t query_index);
  void HandleUpdateArrival(ItemId item);
  /// `handle` is the transaction's packed slab handle (TxnSlot), not its id:
  /// a stale handle (slot released, possibly reused) resolves to nullptr and
  /// the event is dead — the same staleness test EventIsDead applies.
  void HandleCompletion(int64_t handle, uint64_t generation);
  void HandleQueryDeadline(int64_t handle);
  void HandleControlTick();
  /// Flips a fault's effect on (start edge) or off (stop edge).
  void HandleFaultEdge(int64_t edge_index);
  /// Load-step arrival: admits an injected query like a workload one.
  void HandleFaultQueryArrival(int64_t injected_index);
  /// Burst delivery: a forced source message the server must ingest.
  void HandleFaultUpdateArrival(int64_t injected_index);
  /// Session retry firing: resubmits the original request of trace query
  /// `trace_id`, held by its session's retry chain, at the current instant
  /// through the shared admission path.
  void HandleClientResubmit(int64_t trace_id);
  /// Arrival-side admission path shared by workload arrivals, injected
  /// queries, and session resubmissions (`resubmit` marks the latter so the
  /// request is not re-registered with its session).
  void AdmitArrivedQuery(const QueryRequest& request, bool resubmit = false);
  /// Overload shedding: while more than EngineParams::shed_watermark queries
  /// sit in the ready queue, evicts the oldest (min (arrival, id)) with a
  /// rejection. Called only when the watermark is set.
  void MaybeShed();
  /// Result-cache arrival check (called only when the cache is enabled,
  /// before admission control): resolves `t` as a Success from cache and
  /// returns true when its whole read set is covered and fresh enough;
  /// otherwise counts the miss / stale skip and returns false.
  bool TryServeFromCache(Transaction* t);

  /// Core dispatch loop: preempts, acquires locks (applying 2PL-HP aborts),
  /// starts the highest-priority runnable transaction.
  void TryDispatch();
  void StartRunning(Transaction* t);
  void PreemptRunning();
  void CompleteRunning(Transaction* t);
  /// Attempts lock acquisition for t; may block t or restart S holders.
  /// Returns true when t holds everything it needs.
  bool AcquireLocks(Transaction* t);
  void BlockOnLocks(Transaction* t);
  /// Moves every blocked transaction back to the ready queue.
  void UnblockAll();
  /// 2PL-HP restart of a lock-holding query displaced by an update.
  void RestartQuery(Transaction* t);
  /// Terminal failure of a query (deadline abort); releases everything.
  void AbortQuery(Transaction* t, Outcome outcome);
  void ResolveQuery(Transaction* t, Outcome outcome);
  void ReleaseLocksOf(Transaction* t);

  const Workload& workload_;
  Policy* policy_;
  EngineParams params_;

  Database db_;
  LockManager locks_;
  ReadyQueue ready_;
  EventQueue events_;
  AdmissionIndex admission_index_;
  Rng rng_;

  /// Slot-recycled transaction arena: resolved transactions return their
  /// slot, so memory is O(peak live transactions), not O(total). Ids stay
  /// monotonic and unique (next_txn_id_), decoupled from slot indices.
  TxnSlab txns_;
  TxnId next_txn_id_ = 0;
  /// Live *query* transactions by id. 2PL-HP hands back victim TxnIds from
  /// the lock manager (shared holders are always queries) and the engine
  /// needs pointers; updates are never looked up by id.
  std::unordered_map<TxnId, Transaction*> live_queries_;
  std::vector<Transaction*> blocked_;
  std::vector<int64_t> pending_updates_per_item_;

  /// Cursor over the workload's query trace with the next query staged:
  /// its arrival event already sits in the heap under its reserved FIFO
  /// sequence (its trace position).
  std::unique_ptr<QueryCursor> query_cursor_;
  QueryRequest staged_query_;

  Transaction* running_ = nullptr;
  SimTime run_start_ = 0;
  SimTime now_ = 0;
  bool ran_ = false;

  // Closed-loop session state (inert when params_.session.sessions == 0).
  // A kClientResubmit event carries the trace id of its retry chain, which
  // holds the original request, so events stay POD and memory stays bounded
  // by the requests in flight.
  SessionPool sessions_;
  // Overload-shedding state: resolving_shed_ flags the ResolveQuery calls
  // made on shedding victims so their terminal trace event is kShed (with
  // the pre-eviction depth) instead of kReject.
  bool resolving_shed_ = false;
  int shed_depth_ = 0;

  // Result-cache state (inert when params_.cache.capacity == 0).
  // resolving_cache_hit_ flags the ResolveQuery call made on a cache hit so
  // its terminal trace event is kCacheHit (carrying the staleness-dominant
  // item and its Udrop) instead of kCommit.
  ResultCache cache_;
  bool resolving_cache_hit_ = false;
  ItemId cache_hit_item_ = kInvalidItem;
  int64_t cache_hit_udrop_ = 0;

  // Fault-layer state (sized/used only when params_.faults is set). The
  // outage counter nests overlapping windows; the scalars hold the single
  // active slowdown factor / freshness shift (scenario validation forbids
  // overlapping windows of those kinds).
  std::vector<int32_t> item_outage_;
  double fault_exec_scale_ = 1.0;
  double fault_freshness_shift_ = 0.0;

  // Observability bookkeeping (only touched when the hooks are set).
  const char* pending_reject_reason_ = nullptr;
  WindowSample series_totals_;  ///< run counters at the last sample
  double series_last_busy_ = 0.0;
  SimTime series_last_sample_ = 0;
  std::vector<int64_t> udrop_scratch_;

  RunMetrics metrics_;
};

}  // namespace unitdb

#endif  // UNIT_SCHED_ENGINE_H_
