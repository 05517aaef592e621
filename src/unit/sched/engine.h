#ifndef UNIT_SCHED_ENGINE_H_
#define UNIT_SCHED_ENGINE_H_

#include <memory>
#include <vector>

#include "unit/common/rng.h"
#include "unit/common/status.h"
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

class FaultSchedule;
struct FaultEdge;
class TraceSink;
enum class TraceEventType : uint8_t;

/// Single-CPU discrete-event web-database server: dual-priority preemptive
/// EDF dispatch, 2PL-HP concurrency control, firm query deadlines, lag-based
/// freshness, and policy hooks for admission control and update frequency
/// modulation. Deterministic for a fixed (workload, policy, params) triple.
///
/// This is the optimized EngineContext implementation: an admission index
/// that also yields the earliest queued deadline, intrusive ready-queue
/// heaps and a timer-only event heap. The semantically identical naive
/// implementation lives in model/reference_engine.h.
class Engine final : public EngineContext {
 public:
  /// `workload` and `policy` must outlive the engine; neither is owned.
  Engine(const Workload& workload, Policy* policy, EngineParams params);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Whether the database accepted the workload's update specs
  /// (Database::ApplySpecs): a duplicate item or one outside the item range
  /// fails. Check it before Run.
  const Status& workload_status() const { return workload_status_; }

  /// Runs the whole workload to completion and returns the collected
  /// metrics. Call at most once. Aborts in every build type when
  /// workload_status() is not OK.
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

  /// Admission control's projection, from one descent of the admission
  /// index in O(log N_rq) (see EngineContext).
  AdmissionProjection ProjectAdmission(SimTime deadline, SimDuration extra,
                                       double dmf_cost,
                                       double rejection_cost) const override;

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

  bool tracing() const { return params_.trace != nullptr; }
  /// Trace emission helpers, one per event kind. Each is called only when
  /// tracing is on, and all are defined noinline/cold in engine.cc so the
  /// ~170-byte TraceEvent construction never bloats a hot handler's frame
  /// on trace-off runs (measurably ~4% engine throughput).
  /// End-of-run obs epilogue (final window sample, sink flush); called
  /// from Run() only when some hook is attached.
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
  /// Reads the cursor's next query into staged_query_ (clears staged_ at the
  /// end of the trace); aborts in every build type if it arrives before now.
  void StageQuery();
  void HandleUpdateArrival(ItemId item);
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
  /// Commits the running transaction at its completion instant.
  void CompleteRunning();
  /// Attempts lock acquisition for t; may block an update or restart S
  /// holders. Returns true when t holds everything it needs; always for a
  /// query.
  bool AcquireLocks(Transaction* t);
  /// Parks an update behind another update's X lock.
  void BlockOnLocks(Transaction* t);
  /// Moves every blocked update back to the ready queue.
  void UnblockAll();
  /// 2PL-HP restart of a lock-holding query displaced by an update.
  void RestartQuery(Transaction* t);
  /// Terminal failure of a ready or running query (deadline miss or shed);
  /// releases everything.
  void AbortQuery(Transaction* t, Outcome outcome);
  /// Records a query's outcome and releases its slot.
  void ResolveQuery(Transaction* t, Outcome outcome);
  void ReleaseLocksOf(Transaction* t);

  const Workload& workload_;
  Policy* policy_;
  EngineParams params_;

  Database db_;
  Status workload_status_;
  LockManager locks_;
  ReadyQueue ready_;
  EventQueue events_;
  /// The queued queries by (absolute deadline, id). Its first query's
  /// deadline and the running query's are the earliest live ones: Run
  /// orders them against the timers by (absolute deadline, deadline_seq()).
  AdmissionIndex admission_index_;
  Rng rng_;

  /// Slot-recycled transaction arena: resolved transactions return their
  /// slot, so memory is O(peak live transactions), not O(total). Ids stay
  /// monotonic and unique (next_txn_id_), decoupled from slot indices.
  TxnSlab txns_;
  TxnId next_txn_id_ = 0;
  /// Updates waiting for an X lock. Queries never wait (see AcquireLocks).
  std::vector<Transaction*> blocked_;
  std::vector<int64_t> pending_updates_per_item_;

  /// Cursor over the workload's query trace with the next query staged.
  /// The staged arrival stays out of the event heap: Run takes it first at
  /// any instant it shares with a timer, a deadline or the running
  /// completion, the order it would have had if every arrival were pushed up
  /// front.
  std::unique_ptr<QueryCursor> query_cursor_;
  QueryRequest staged_query_;
  bool staged_ = false;

  /// The running transaction completes at run_start_ + remaining() unless
  /// preempted or aborted first, which just clears running_. Its completion
  /// stays out of the event heap and is ordered against the timers and the
  /// deadlines by completion_seq_, the FIFO sequence taken at dispatch.
  Transaction* running_ = nullptr;
  SimTime run_start_ = 0;
  uint64_t completion_seq_ = 0;
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
