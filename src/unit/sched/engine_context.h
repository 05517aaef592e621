#ifndef UNIT_SCHED_ENGINE_CONTEXT_H_
#define UNIT_SCHED_ENGINE_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "unit/cache/result_cache.h"
#include "unit/common/types.h"
#include "unit/sched/ready_queue.h"
#include "unit/session/session.h"
#include "unit/txn/outcome.h"
#include "unit/txn/transaction.h"

namespace unitdb {

class Database;
class FaultSchedule;
class TimeSeriesRecorder;
class TraceSink;

/// Engine tunables: simulation semantics only. Shared by the optimized
/// engine (sched/engine.h) and the naive reference engine
/// (model/reference_engine.h), which run them identically.
struct EngineParams {
  /// Policy control-tick period (the paper triggers its Load Balancing
  /// Controller periodically; 1 simulated second by default).
  SimDuration control_period = SecondsToSim(1.0);
  /// Multiplicative lognormal noise (sigma of the underlying normal) applied
  /// to the execution-time estimates admission control sees; 0 = exact.
  double estimate_noise_sigma = 0.0;
  /// Engine-internal RNG seed (estimate noise; policies fork their own).
  uint64_t seed = 1;
  /// Cap on ODU-style refresh rounds per query dispatch, preventing a query
  /// from chasing a fast source forever.
  int max_refresh_rounds = 3;
  /// Intra-class dispatch order (EDF per the paper; FCFS for the
  /// scheduling ablation). Admission control projects the EDF schedule
  /// under either.
  QueueDiscipline discipline = QueueDiscipline::kEdf;

  /// Closed-loop client sessions (src/unit/session/): retry-with-backoff /
  /// abandon reactions to rejected and deadline-missed queries. The default
  /// (sessions == 0) is a strict behavioral no-op.
  SessionParams session;

  /// Overload shedding in admission: whenever an admitted arrival leaves
  /// more than `shed_watermark` queries in the ready queue, the oldest
  /// ready query (min (arrival, id)) is evicted with a rejection until the
  /// depth is back at the watermark. 0 (the default) disables shedding and
  /// is a strict behavioral no-op.
  int shed_watermark = 0;

  /// Freshness-aware result cache (src/unit/cache/): queries whose entire
  /// read set has valid cache entries are answered on arrival — before
  /// admission control, never entering the ready queue — as a Success with
  /// the items' live Eq. 1 freshness; entries are invalidated when the
  /// update applier installs a new generation. The default
  /// (capacity == 0) disables the cache and is a strict behavioral no-op.
  CacheParams cache;

  // --- observability hooks (src/unit/obs/; all non-owning, may be null) ---
  // Tracing is strictly read-only with respect to engine and policy state:
  // a run produces bit-identical RunMetrics whether these are set or not.
  // When null, every emission site reduces to one predictable untaken
  // branch.

  /// Typed event stream (arrivals, admits/rejects, preempts, commits,
  /// deadline misses, update lifecycle, LBC signals).
  TraceSink* trace = nullptr;
  /// Per-control-window telemetry (USM decomposition, queue depths, Udrop
  /// percentiles, admission knob), sampled at every control tick plus once
  /// at end of run.
  TimeSeriesRecorder* series = nullptr;

  /// Compiled fault schedule (src/unit/faults/; non-owning, may be null).
  /// Everything a schedule injects is materialized before the run, so the
  /// hot path pays one predictable branch per site and zero allocations,
  /// and an empty (or null) schedule is a strict behavioral no-op — the
  /// run's RunMetrics are bit-identical either way.
  const FaultSchedule* faults = nullptr;
};

/// What admission control learns about the queue for one candidate
/// (EngineContext::ProjectAdmission).
struct AdmissionProjection {
  /// Earliest start (EST): the remaining demand of the running transaction,
  /// every queued update and the queued queries due no later than it.
  SimDuration est = 0;
  /// Whether the queries it would newly endanger cost more than rejecting it.
  bool endangers = false;
};

/// The engine surface a transaction-management policy (and the admission
/// controller) programs against: the simulation clock, the database, queue
/// introspection, on-demand updates, and run counters. Two implementations
/// exist — the optimized production engine (sched/engine.h: admission index,
/// intrusive heaps, a timer-only event heap that the staged arrival and the
/// running completion are merged into) and the deliberately naive reference
/// engine (model/reference_engine.h: straight-line linear scans).
/// Policies written against this interface run unchanged on both, which is
/// what makes differential testing of the optimized engine possible.
class EngineContext {
 public:
  virtual ~EngineContext() = default;

  /// Current simulated time.
  virtual SimTime now() const = 0;
  virtual Database& db() = 0;
  virtual const Database& db() const = 0;
  virtual const EngineParams& params() const = 0;

  /// Cumulative per-preference-class outcome counters (empty until the
  /// first query resolves; index = preference_class).
  virtual const std::vector<OutcomeCounts>& per_class_counts() const = 0;

  /// CPU busy time so far, seconds, including the in-progress slice of the
  /// currently running transaction (feedback controllers diff snapshots to
  /// measure windowed utilization).
  virtual double BusySeconds() const = 0;

  /// Admission control's one question about the queue, for a candidate due
  /// at `deadline` with estimate `extra`. The queued queries are projected
  /// in EDF (deadline, txn id) order, whatever EngineParams::discipline
  /// dispatches by (core/admission.h), behind the running transaction and
  /// every queued update. A query due later is endangered when it meets its
  /// deadline as things stand but misses it once `extra` runs ahead of it;
  /// `endangers` says whether the endangered queries' `dmf_cost`s, summed
  /// one at a time, exceed `rejection_cost` (costs are non-negative; a zero
  /// `dmf_cost` never endangers).
  virtual AdmissionProjection ProjectAdmission(
      SimTime deadline, SimDuration extra, double dmf_cost,
      double rejection_cost) const = 0;

  /// Update transactions for `item` currently in the system (queued,
  /// blocked, or running) — lets ODU avoid issuing duplicate refreshes.
  virtual int64_t PendingUpdatesForItem(ItemId item) const = 0;

  /// Creates an on-demand update transaction for `item` right now, with an
  /// urgent internal deadline so it outranks queued periodic updates.
  /// Returns its transaction id.
  virtual TxnId IssueOnDemandUpdate(ItemId item) = 0;

  /// Records why the policy is about to reject the arriving query ("deadline"
  /// / "usm"; must point at static storage). Consumed by the reject trace
  /// event of the next ResolveQuery; policies without a reason stay silent
  /// and the event carries "policy". No-op when tracing is off.
  virtual void ReportRejectReason(const char* reason) = 0;
};

}  // namespace unitdb

#endif  // UNIT_SCHED_ENGINE_CONTEXT_H_
