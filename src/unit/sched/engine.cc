#include "unit/sched/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

#include "unit/common/logging.h"
#include "unit/faults/schedule.h"
#include "unit/obs/timeseries.h"
#include "unit/obs/trace_sink.h"

// Trace emission helpers are kept out of line and out of the hot path: a
// TraceEvent is ~170 bytes of zero-initialized struct, and building one
// inline would grow the stack frame and icache footprint of every handler
// even on trace-off runs where the guarded branch is never taken.
#if defined(__GNUC__) || defined(__clang__)
#define UNIT_COLD __attribute__((noinline, cold))
#else
#define UNIT_COLD
#endif

namespace unitdb {

Engine::Engine(const Workload& workload, Policy* policy, EngineParams params)
    : workload_(workload),
      policy_(policy),
      params_(params),
      db_(workload.num_items),
      locks_(workload.num_items),
      ready_(params.discipline),
      rng_(params.seed),
      pending_updates_per_item_(workload.num_items, 0),
      sessions_(params.session),
      cache_(params.cache) {
  assert(policy_ != nullptr);
  db_.SetSourceHorizon(workload.duration);
  workload_status_ = db_.ApplySpecs(workload.updates);
  metrics_.duration_s = SimToSeconds(workload.duration);
  if (params_.faults != nullptr) {
    item_outage_.assign(workload.num_items, 0);
  }
}

RunMetrics Engine::Run() {
  assert(!ran_ && "Engine::Run must be called at most once");
  ran_ = true;
  if (!workload_status_.ok()) [[unlikely]] {
    // Its update chains would name items the database never set up.
    UNIT_LOG(Error) << "bad workload update specs: "
                    << workload_status_.ToString();
    std::abort();
  }
  policy_->Attach(*this);
  ScheduleInitialEvents();
  while (staged_ || running_ != nullptr || !events_.empty()) {
    if (events_.ShouldCompact()) {
      const size_t removed =
          events_.CompactIf([this](const Event& ev) { return EventIsDead(ev); });
      ++metrics_.event_compactions;
      metrics_.events_compacted += static_cast<int64_t>(removed);
      continue;  // the pass may have emptied the heap
    }
    ++metrics_.events_processed;
    // Three sources, merged in the (time, seq) order of one queue holding
    // them all. The staged arrival wins every tie: pushed up front, arrival
    // i would hold sequence i, below every other event's. The completion
    // holds the sequence taken at its dispatch.
    const Event* top = events_.empty() ? nullptr : &events_.Top();
    const SimTime done =
        running_ != nullptr ? run_start_ + running_->remaining() : 0;
    if (staged_ && (top == nullptr || staged_query_.arrival <= top->time) &&
        (running_ == nullptr || staged_query_.arrival <= done)) {
      now_ = staged_query_.arrival;
      AdmitArrivedQuery(staged_query_);
      StageQuery();
    } else if (running_ != nullptr &&
               (top == nullptr || done < top->time ||
                (done == top->time && completion_seq_ < top->seq))) {
      assert(done >= now_);
      now_ = done;
      CompleteRunning();
    } else {
      const Event e = events_.Pop();
      assert(e.time >= now_);
      // Drop dead (lazily cancelled) events before they advance the clock:
      // their handlers would no-op anyway, and the end-of-run time — which
      // the trailing window sample observes — must not depend on whether a
      // deadline tombstone was compacted away earlier.
      if (EventIsDead(e)) continue;
      now_ = e.time;
      switch (e.type) {
        case EventType::kQueryArrival:  // staged off the heap (above)
        case EventType::kCompletion:    // held by running_ (above)
          break;
        case EventType::kUpdateArrival:
          HandleUpdateArrival(static_cast<ItemId>(e.payload));
          break;
        case EventType::kQueryDeadline:
          HandleQueryDeadline(e.payload);
          break;
        case EventType::kControlTick:
          HandleControlTick();
          break;
        case EventType::kFaultEdge:
          HandleFaultEdge(e.payload);
          break;
        case EventType::kFaultQueryArrival:
          HandleFaultQueryArrival(e.payload);
          break;
        case EventType::kFaultUpdateArrival:
          HandleFaultUpdateArrival(e.payload);
          break;
        case EventType::kClientResubmit:
          HandleClientResubmit(e.payload);
          break;
      }
    }
    // Every handler may have queued work — an arrival, a policy refresh
    // issued from a control tick — so the CPU is offered after each event.
    TryDispatch();
  }
  assert(running_ == nullptr);
  assert(ready_.empty());
  assert(admission_index_.occupied() == 0);
  metrics_.txn_live_peak = txns_.high_water();
  metrics_.txn_slots_created = txns_.slots_created();
  metrics_.txn_released = txns_.released();
  if (params_.series != nullptr || params_.trace != nullptr) {
    FinalizeObservability();
  }
  metrics_.peak_ready_depth = ready_.peak_size();
  // Copy per-item bookkeeping out of the database.
  metrics_.per_item_accesses.resize(db_.num_items());
  metrics_.per_item_applied_updates.resize(db_.num_items());
  for (ItemId i = 0; i < db_.num_items(); ++i) {
    metrics_.per_item_accesses[i] = db_.item(i).query_accesses;
    metrics_.per_item_applied_updates[i] = db_.item(i).applied_updates;
  }
  return metrics_;
}

Transaction* Engine::NewQueryTxn(const QueryRequest& request) {
  const TxnId id = next_txn_id_++;
  SimDuration exec = request.exec;
  double freshness_req = request.freshness_req;
  if (params_.faults != nullptr) {
    // Both adjustments are guarded so an inactive fault layer performs zero
    // divergent operations (no int -> double -> int round trips): the
    // empty-schedule run stays bit-identical to the fault-free engine.
    if (fault_exec_scale_ != 1.0) {
      exec = std::max<SimDuration>(
          1, static_cast<SimDuration>(static_cast<double>(exec) *
                                      fault_exec_scale_));
    }
    if (fault_freshness_shift_ != 0.0) {
      freshness_req = std::min(
          1.0, std::max(0.0, freshness_req + fault_freshness_shift_));
    }
  }
  Transaction* t = txns_.Create(Transaction::MakeQuery(
      id, request.arrival, exec, request.relative_deadline, freshness_req,
      request.items, request.preference_class));
  t->set_trace_id(request.id);
  if (t->items().inlined()) {
    ++metrics_.readset_inline;
  } else {
    ++metrics_.readset_spill;
  }
  if (params_.estimate_noise_sigma > 0.0) {
    const double factor =
        rng_.LogNormal(0.0, params_.estimate_noise_sigma);
    t->set_estimate(std::max<SimDuration>(
        1, static_cast<SimDuration>(
               static_cast<double>(t->exec_time()) * factor)));
  }
  return t;
}

Transaction* Engine::NewUpdateTxn(ItemId item, SimDuration relative_deadline,
                                  bool on_demand) {
  const TxnId id = next_txn_id_++;
  SimDuration exec = db_.item(item).update_exec;
  if (params_.faults != nullptr && fault_exec_scale_ != 1.0) {
    exec = std::max<SimDuration>(
        1, static_cast<SimDuration>(static_cast<double>(exec) *
                                    fault_exec_scale_));
  }
  Transaction* t = txns_.Create(Transaction::MakeUpdate(
      id, now_, exec, std::max<SimDuration>(1, relative_deadline), item,
      on_demand));
  ++metrics_.readset_inline;  // single-item read set always fits inline
  ++pending_updates_per_item_[item];
  ++metrics_.updates_generated;
  return t;
}

void Engine::ScheduleInitialEvents() {
  // Query arrivals stream from the trace cursor, one staged at a time; Run
  // merges the staged one in ahead of every event at its instant, the order
  // of the push-all schedule the reference engine keeps.
  query_cursor_ = workload_.NewQueryCursor();
  StageQuery();
  if (policy_->UsesPeriodicUpdates()) {
    for (const auto& spec : workload_.updates) {
      if (spec.ideal_period <= 0 || spec.ideal_period >= kNoUpdates) continue;
      if (spec.phase < workload_.duration) {
        events_.Push(spec.phase, EventType::kUpdateArrival, spec.item);
      }
    }
  }
  if (params_.control_period > 0 &&
      params_.control_period <= workload_.duration) {
    events_.Push(params_.control_period, EventType::kControlTick, 0);
  }
  // Fault events are pushed after every workload event so that, at equal
  // timestamps, workload arrivals pop first. The reference engine pushes in
  // the same order, and FIFO tie-breaks (hence txn ids) must agree.
  if (params_.faults != nullptr) {
    const FaultSchedule& faults = *params_.faults;
    for (size_t i = 0; i < faults.edges().size(); ++i) {
      events_.Push(faults.edges()[i].time, EventType::kFaultEdge,
                   static_cast<int64_t>(i));
    }
    for (size_t i = 0; i < faults.injected_queries().size(); ++i) {
      events_.Push(faults.injected_queries()[i].arrival,
                   EventType::kFaultQueryArrival, static_cast<int64_t>(i));
    }
    for (size_t i = 0; i < faults.injected_updates().size(); ++i) {
      events_.Push(faults.injected_updates()[i].time,
                   EventType::kFaultUpdateArrival, static_cast<int64_t>(i));
    }
  }
}

void Engine::StageQuery() {
  staged_ = query_cursor_->Next(&staged_query_);
  if (staged_ && staged_query_.arrival < now_) [[unlikely]] {
    // Replaying it would step the clock back: stop in every build type.
    UNIT_LOG(Error) << "query " << staged_query_.id << " arrives at "
                    << SimToSeconds(staged_query_.arrival) << " s, before "
                    << SimToSeconds(now_)
                    << " s: trace arrivals must not decrease";
    std::abort();
  }
}

void Engine::AdmitArrivedQuery(const QueryRequest& request, bool resubmit) {
  Transaction* t = NewQueryTxn(request);
  ++metrics_.counts.submitted;
  if (!resubmit && sessions_.Eligible(t->trace_id())) {
    ++metrics_.session_requests;
    sessions_.OnSubmit(t->trace_id(), request);
  }
  if (tracing()) TraceQueryArrival(*t);
  // Result cache sits before admission control: a covered, fresh-enough
  // query is answered immediately and never enters the ready queue (no
  // deadline event is pushed, so the event clock is untouched).
  if (cache_.enabled() && TryServeFromCache(t)) return;
  if (!policy_->AdmitQuery(*this, *t)) {
    t->set_state(TxnState::kAborted);
    ResolveQuery(t, Outcome::kRejected);
    return;
  }
  if (tracing()) TraceSimpleEvent(TraceEventType::kAdmit, t->id());
  t->set_state(TxnState::kReady);
  ReadyInsert(t);
  events_.Push(t->absolute_deadline(), EventType::kQueryDeadline,
               t->slab_handle());
  if (params_.shed_watermark > 0) MaybeShed();
}

void Engine::MaybeShed() {
  while (ready_.query_count() > params_.shed_watermark) {
    // Victim: the oldest ready query by (arrival, id), a unique key, so the
    // heap's layout cannot sway the pick. The query admitted just now has
    // the largest id among equal arrivals, so it is never the victim.
    Transaction* victim = nullptr;
    for (Transaction* q : ready_.queries()) {
      if (victim == nullptr || q->arrival() < victim->arrival() ||
          (q->arrival() == victim->arrival() && q->id() < victim->id())) {
        victim = q;
      }
    }
    shed_depth_ = ready_.query_count();
    resolving_shed_ = true;
    ++metrics_.queries_shed;
    AbortQuery(victim, Outcome::kRejected);
    resolving_shed_ = false;
    // The victim's deadline event is still pending and its handler will now
    // no-op: tombstone it, as a commit does.
    events_.NoteCancelled();
    ++metrics_.events_cancelled;
  }
}

bool Engine::TryServeFromCache(Transaction* t) {
  if (!cache_.Covers(t->items())) {
    ++metrics_.cache_misses;
    return false;
  }
  // Entries are invalidated whenever a newer generation is installed, so
  // the live Udrop of each covered item is exactly the staleness of its
  // cached data: the hit reports the same Eq. 1 freshness an instantaneous
  // execution would observe on the same stored generations.
  int64_t udrop = 0;
  ItemId dominant = kInvalidItem;
  for (ItemId item : t->items()) {
    const int64_t u = db_.Udrop(item, now_);
    if (dominant == kInvalidItem || u > udrop) {
      udrop = u;
      dominant = item;
    }
  }
  const double freshness = 1.0 / (1.0 + static_cast<double>(udrop));
  // qf_i check (plus the optional staleness bound): serving a hit that
  // fails the query's freshness requirement would manufacture a DSF the
  // engine might have avoided, so execute it instead.
  if (freshness < t->freshness_req() ||
      (params_.cache.max_hit_udrop >= 0 &&
       udrop > params_.cache.max_hit_udrop)) {
    ++metrics_.cache_stale_skips;
    return false;
  }
  ++metrics_.cache_hits;
  t->set_observed_freshness(freshness);
  t->set_state(TxnState::kCommitted);
  t->set_commit_time(now_);
  for (ItemId item : t->items()) db_.RecordAccess(item);
  metrics_.query_response_s.Add(SimToSeconds(now_ - t->arrival()));
  metrics_.query_freshness.Add(freshness);
  resolving_cache_hit_ = true;
  cache_hit_item_ = dominant;
  cache_hit_udrop_ = udrop;
  ResolveQuery(t, Outcome::kSuccess);
  resolving_cache_hit_ = false;
  return true;
}

void Engine::HandleClientResubmit(int64_t trace_id) {
  const QueryRequest* original = sessions_.Request(trace_id);
  assert(original != nullptr && "a pending retry keeps its chain");
  QueryRequest request = *original;
  // The retry arrives now: its deadline clock restarts, and any active
  // fault adjustments (slowdown, freshness shift) apply to this attempt
  // exactly as they would to a fresh arrival.
  request.arrival = now_;
  AdmitArrivedQuery(request, /*resubmit=*/true);
}

void Engine::HandleUpdateArrival(ItemId item) {
  if (now_ >= workload_.duration) return;
  DataItemState& state = db_.mutable_item(item);
  // Update messages stream in at the source rate (one per ideal period,
  // aligned with generations). Frequency modulation drops arrivals: the
  // server only turns an arrival into an update *transaction* when the
  // current (possibly stretched) period has elapsed since the last one it
  // applied. Dropped arrivals cost no CPU — that is the load shed.
  const SimTime next = now_ + state.ideal_period;
  if (next < workload_.duration) {
    events_.Push(next, EventType::kUpdateArrival, item);
  }
  if (params_.faults != nullptr && item_outage_[item] > 0) {
    // Source outage: the message never reaches the server — no trace, no
    // policy hook, no transaction. The arrival chain keeps ticking so
    // deliveries resume when the outage window closes, and the source's
    // generations keep advancing, so the installed value decays.
    ++metrics_.fault_suppressed_updates;
    return;
  }
  if (tracing()) TraceItemEvent(TraceEventType::kUpdateArrival, item);
  policy_->OnUpdateSourceArrival(*this, item);
  const bool due = state.last_pull < 0 ||
                   (now_ - state.last_pull) + state.ideal_period / 2 >=
                       state.current_period;
  if (!due) {
    ++metrics_.updates_dropped;
    if (tracing()) TraceItemEvent(TraceEventType::kUpdateDrop, item);
    return;
  }
  state.last_pull = now_;
  Transaction* t = NewUpdateTxn(item, state.current_period,
                                /*on_demand=*/false);
  t->set_state(TxnState::kReady);
  ReadyInsert(t);
}

TxnId Engine::IssueOnDemandUpdate(ItemId item) {
  const DataItemState& state = db_.item(item);
  // Urgent internal deadline: outranks queued periodic updates under EDF.
  Transaction* t = NewUpdateTxn(item, std::max<SimDuration>(1, state.update_exec),
                                /*on_demand=*/true);
  t->set_state(TxnState::kReady);
  ReadyInsert(t);
  ++metrics_.on_demand_updates;
  return t->id();
}

void Engine::HandleQueryDeadline(int64_t handle) {
  AbortQuery(txns_.Get(handle), Outcome::kDeadlineMiss);
}

void Engine::HandleControlTick() {
  policy_->OnControlTick(*this);
  if (params_.series != nullptr) RecordWindowSample();
  const SimTime next = now_ + params_.control_period;
  if (next <= workload_.duration) {
    events_.Push(next, EventType::kControlTick, 0);
  }
}

void Engine::HandleFaultEdge(int64_t edge_index) {
  const FaultEdge& edge = params_.faults->edges()[edge_index];
  ++metrics_.fault_edges;
  switch (edge.kind) {
    case FaultKind::kUpdateOutage:
      for (int32_t k = 0; k < edge.item_count; ++k) {
        const ItemId item = params_.faults->items()[edge.item_begin + k];
        item_outage_[item] += edge.start ? 1 : -1;
      }
      break;
    case FaultKind::kServiceSlowdown:
      fault_exec_scale_ = edge.start ? edge.magnitude : 1.0;
      break;
    case FaultKind::kFreshnessShift:
      fault_freshness_shift_ = edge.start ? edge.magnitude : 0.0;
      break;
    case FaultKind::kUpdateBurst:
    case FaultKind::kLoadStep:
    case FaultKind::kRetryStorm:
      // Injection is pre-materialized; the edges only mark the window for
      // the trace (and the checker's response-direction invariant).
      break;
  }
  if (tracing()) TraceFaultEdge(edge);
}

void Engine::HandleFaultQueryArrival(int64_t injected_index) {
  ++metrics_.fault_injected_queries;
  AdmitArrivedQuery(params_.faults->injected_queries()[injected_index]);
}

void Engine::HandleFaultUpdateArrival(int64_t injected_index) {
  if (now_ >= workload_.duration) return;
  const ItemId item = params_.faults->injected_updates()[injected_index].item;
  if (item_outage_[item] > 0) {
    // A concurrent outage swallows forced deliveries too.
    ++metrics_.fault_suppressed_updates;
    return;
  }
  DataItemState& state = db_.mutable_item(item);
  if (tracing()) TraceItemEvent(TraceEventType::kUpdateArrival, item);
  policy_->OnUpdateSourceArrival(*this, item);
  // A burst models the source pushing extra versions the server must
  // ingest, so the delivery bypasses frequency modulation's due-check.
  state.last_pull = now_;
  Transaction* t = NewUpdateTxn(item, state.current_period,
                                /*on_demand=*/false);
  t->set_state(TxnState::kReady);
  ReadyInsert(t);
  ++metrics_.fault_injected_updates;
}

AdmissionProjection Engine::ProjectAdmission(SimTime deadline,
                                             SimDuration extra,
                                             double dmf_cost,
                                             double rejection_cost) const {
  // Every queued query waits behind the running remainder and the queued
  // updates (dual priority), so the lag window starts at `start`.
  SimDuration ahead = ready_.TotalUpdateWork();
  if (running_ != nullptr) ahead += running_->remaining() - (now_ - run_start_);
  const SimTime start = now_ + ahead;
  // No more queries than are queued can be endangered, so the search for
  // the cap stops there (cap 0: none can reach it, count nothing).
  const int64_t cap = EndangeredCap(dmf_cost, rejection_cost,
                                    admission_index_.occupied());
  const AdmissionIndex::Projection p =
      admission_index_.Project(deadline, start, start + extra, cap);
  return {ahead + p.earlier_work, cap > 0 && p.endangered >= cap};
}

void Engine::TryDispatch() {
  while (true) {
    Transaction* top = ready_.Top();
    if (running_ != nullptr) {
      if (top == nullptr || !ready_.HigherPriority(*top, *running_)) {
        return;
      }
      PreemptRunning();
      continue;
    }
    if (top == nullptr) return;
    ReadyRemove(top);
    if (top->is_query() && !policy_->BeforeQueryDispatch(*this, *top)) {
      // The policy issued refreshes that now outrank this query; requeue it.
      top->set_state(TxnState::kReady);
      ReadyInsert(top);
      Transaction* new_top = ready_.Top();
      if (new_top == top) {
        UNIT_LOG(Error) << "policy postponed query " << top->id()
                        << " without enqueueing higher-priority work";
        ReadyRemove(top);
        // Fall through and run it anyway to preserve progress.
      } else {
        continue;
      }
    }
    if (!top->holds_locks() && !AcquireLocks(top)) {
      continue;  // blocked; try the next candidate
    }
    StartRunning(top);
    return;
  }
}

void Engine::StartRunning(Transaction* t) {
  t->set_state(TxnState::kRunning);
  running_ = t;
  run_start_ = now_;
  completion_seq_ = events_.TakeSeq();
}

void Engine::PreemptRunning() {
  Transaction* t = running_;
  const SimDuration ran = now_ - run_start_;
  metrics_.busy_s += SimToSeconds(ran);
  t->set_remaining(t->remaining() - ran);
  t->set_state(TxnState::kReady);
  running_ = nullptr;
  ReadyInsert(t);
  ++metrics_.preemptions;
  // Only query preemptions are traced: update transactions have no arrival
  // event, so the lifecycle checker could not account for them.
  if (tracing() && t->is_query()) {
    TraceSimpleEvent(TraceEventType::kPreempt, t->id());
  }
}

bool Engine::AcquireLocks(Transaction* t) {
  if (t->is_query()) {
    if (locks_.TryAcquireShared(t)) return true;
    BlockOnLocks(t);
    return false;
  }
  // Update: X lock on its single item. Its shared holders are queries, a
  // lower class: 2PL-HP restarts them, which frees the item for the retry.
  LockManager::XAttempt result = locks_.TryAcquireExclusive(t);
  if (!result.shared_holders.empty()) {
    for (Transaction* victim : result.shared_holders) RestartQuery(victim);
    result = locks_.TryAcquireExclusive(t);
    assert(result.granted && "restarting the holders frees the item");
  }
  if (result.granted) return true;
  BlockOnLocks(t);
  return false;
}

void Engine::BlockOnLocks(Transaction* t) {
  assert(!t->holds_locks());
  t->set_state(TxnState::kBlocked);
  blocked_.push_back(t);
}

void Engine::UnblockAll() {
  if (blocked_.empty()) return;
  for (Transaction* t : blocked_) {
    if (t->Terminal()) continue;  // deadline fired while blocked
    t->set_state(TxnState::kReady);
    ReadyInsert(t);
  }
  blocked_.clear();
}

void Engine::RestartQuery(Transaction* t) {
  assert(t->is_query());
  assert(t->state() == TxnState::kReady && "2PL-HP victims sit in the ready queue");
  ReadyRemove(t);
  ReleaseLocksOf(t);
  t->ResetWork();
  t->IncrementRestarts();
  t->set_state(TxnState::kReady);
  ReadyInsert(t);
  ++metrics_.lock_restarts;
  if (tracing()) TraceSimpleEvent(TraceEventType::kLockRestart, t->id());
}

void Engine::AbortQuery(Transaction* t, Outcome outcome) {
  assert(t->is_query());
  if (t == running_) {
    const SimDuration ran = now_ - run_start_;
    metrics_.busy_s += SimToSeconds(ran);
    t->set_remaining(t->remaining() - ran);
    running_ = nullptr;
  } else if (t->state() == TxnState::kReady) {
    ReadyRemove(t);
  } else if (t->state() == TxnState::kBlocked) {
    auto it = std::find(blocked_.begin(), blocked_.end(), t);
    if (it != blocked_.end()) blocked_.erase(it);
  }
  ReleaseLocksOf(t);
  t->set_state(TxnState::kAborted);
  ResolveQuery(t, outcome);
}

void Engine::ResolveQuery(Transaction* t, Outcome outcome) {
  t->set_outcome(outcome);
  if (tracing()) TraceQueryResolution(*t, outcome);
  assert(outcome != Outcome::kPending && "resolving with pending outcome");
  const size_t cls = static_cast<size_t>(t->preference_class());
  if (metrics_.per_class_counts.size() <= cls) {
    metrics_.per_class_counts.resize(cls + 1);
  }
  OutcomeCounts& class_counts = metrics_.per_class_counts[cls];
  ++class_counts.submitted;
  class_counts.Bump(outcome);
  metrics_.counts.Bump(outcome);
  policy_->OnQueryResolved(*this, *t, outcome);
  if (sessions_.Eligible(t->trace_id())) {
    const SessionDecision d = sessions_.OnOutcome(t->trace_id(), outcome);
    switch (d.kind) {
      case SessionDecision::kRetry: {
        // The chain keeps the original request until the retry resolves, so
        // the event carries only the trace id.
        events_.Push(now_ + d.delay, EventType::kClientResubmit,
                     t->trace_id());
        ++metrics_.session_retries;
        metrics_.session_retry_delay_s.Add(SimToSeconds(d.delay));
        if (tracing()) {
          TraceSessionEvent(TraceEventType::kSessionRetry, *t, d);
        }
        break;
      }
      case SessionDecision::kAbandon:
        ++metrics_.session_abandons;
        if (tracing()) {
          TraceSessionEvent(TraceEventType::kSessionAbandon, *t, d);
        }
        break;
      case SessionDecision::kDone:
        ++metrics_.session_successes;
        break;
      case SessionDecision::kNone:
        break;
    }
  }
  // Terminal: recycle the slot (and the read set's storage). An outstanding
  // deadline event carries the now-stale slab handle and resolves to
  // nullptr.
  txns_.Release(t);
}

void Engine::ReleaseLocksOf(Transaction* t) {
  if (!t->holds_locks()) return;
  locks_.Release(t);
  UnblockAll();
}

void Engine::CompleteRunning() {
  Transaction* t = running_;
  const SimDuration ran = now_ - run_start_;
  metrics_.busy_s += SimToSeconds(ran);
  t->set_remaining(0);
  running_ = nullptr;
  t->set_state(TxnState::kCommitted);
  t->set_commit_time(now_);
  if (t->is_update()) {
    // Install the newest source value available when this update was pulled.
    db_.ApplyUpdate(t->update_item(), t->arrival());
    --pending_updates_per_item_[t->update_item()];
    ++metrics_.update_commits;
    metrics_.update_latency_s.Add(SimToSeconds(now_ - t->arrival()));
    if (tracing()) TraceUpdateApply(*t);
    if (cache_.enabled() && cache_.Invalidate(t->update_item())) {
      ++metrics_.cache_invalidations;
      if (tracing()) TraceCacheInvalidate(t->update_item(), t->id());
    }
    ReleaseLocksOf(t);
    policy_->OnUpdateCommit(*this, *t);
    txns_.Release(t);  // updates are terminal at commit
    return;
  }
  // Query commit: evaluate read-set freshness at commit time (Eq. 1).
  // The query's deadline event is still pending (at an equal timestamp the
  // deadline, pushed at arrival, would have popped first and aborted us) and
  // its handler will now no-op — tombstone it.
  events_.NoteCancelled();
  ++metrics_.events_cancelled;
  const double freshness = db_.QueryFreshness(t->items(), now_);
  t->set_observed_freshness(freshness);
  for (ItemId item : t->items()) db_.RecordAccess(item);
  // The commit read each item's installed generation: cache the read set so
  // later queries over these items can be served on arrival.
  if (cache_.enabled()) {
    for (ItemId item : t->items()) cache_.Populate(item);
  }
  ReleaseLocksOf(t);
  metrics_.query_response_s.Add(SimToSeconds(now_ - t->arrival()));
  metrics_.query_freshness.Add(freshness);
  const Outcome outcome = freshness >= t->freshness_req()
                              ? Outcome::kSuccess
                              : Outcome::kDataStale;
  ResolveQuery(t, outcome);
}

UNIT_COLD void Engine::FinalizeObservability() {
  // Trailing partial control window (runs whose duration is not a multiple
  // of the control period, or with control ticks disabled).
  if (params_.series != nullptr && now_ > series_last_sample_) {
    RecordWindowSample();
  }
  if (params_.trace != nullptr) params_.trace->Flush();
}

UNIT_COLD void Engine::TraceQueryArrival(const Transaction& t) {
  TraceEvent e;
  e.time = now_;
  e.type = TraceEventType::kQueryArrival;
  e.txn = t.id();
  e.pref_class = t.preference_class();
  e.deadline = t.absolute_deadline();
  e.estimate = t.estimate();
  params_.trace->Emit(e);
}

UNIT_COLD void Engine::TraceSimpleEvent(TraceEventType type, TxnId txn) {
  TraceEvent e;
  e.time = now_;
  e.type = type;
  e.txn = txn;
  params_.trace->Emit(e);
}

UNIT_COLD void Engine::TraceItemEvent(TraceEventType type, ItemId item) {
  TraceEvent e;
  e.time = now_;
  e.type = type;
  e.item = item;
  params_.trace->Emit(e);
}

UNIT_COLD void Engine::TraceUpdateApply(const Transaction& t) {
  TraceEvent e;
  e.time = now_;
  e.type = TraceEventType::kUpdateApply;
  e.txn = t.id();
  e.item = t.update_item();
  e.lag = now_ - t.arrival();
  e.set_reason(t.on_demand() ? "on-demand" : "periodic");
  params_.trace->Emit(e);
}

UNIT_COLD
void Engine::TraceQueryResolution(const Transaction& t, Outcome outcome) {
  TraceEvent e;
  e.time = now_;
  e.txn = t.id();
  switch (outcome) {
    case Outcome::kRejected:
      if (resolving_shed_) {
        // Overload-shedding eviction: same outcome accounting as a reject,
        // distinct trace kind carrying the pre-eviction ready depth and the
        // watermark so the checker can verify depth > watermark.
        e.type = TraceEventType::kShed;
        e.set_reason("shed");
        e.resolved = shed_depth_;
        e.magnitude = static_cast<double>(params_.shed_watermark);
        break;
      }
      e.type = TraceEventType::kReject;
      e.set_reason(pending_reject_reason_ != nullptr ? pending_reject_reason_
                                                     : "policy");
      break;
    case Outcome::kDeadlineMiss:
      e.type = TraceEventType::kDeadlineMiss;
      break;
    case Outcome::kSuccess:
    case Outcome::kDataStale: {
      if (resolving_cache_hit_) {
        // Cache hit: distinct trace kind carrying the staleness-dominant
        // read-set item and its Udrop at hit time (which invariant 8
        // re-verifies against the item's update history), plus the active
        // capacity so a hit with the cache off is checkable.
        e.type = TraceEventType::kCacheHit;
        e.set_reason("success");
        e.freshness = t.observed_freshness();
        e.freshness_req = t.freshness_req();
        e.udrop = cache_hit_udrop_;
        e.item = cache_hit_item_;
        e.resolved = params_.cache.capacity;
        break;
      }
      e.type = TraceEventType::kCommit;
      e.set_reason(outcome == Outcome::kSuccess ? "success" : "dsf");
      e.freshness = t.observed_freshness();
      e.freshness_req = t.freshness_req();
      // Udrop of the staleness-dominant item: freshness is the min over the
      // read set of 1/(1 + Udrop), i.e. 1/(1 + max Udrop) — the checker
      // re-verifies Eq. 1 from this.
      int64_t udrop = 0;
      for (ItemId item : t.items()) {
        udrop = std::max(udrop, db_.Udrop(item, now_));
      }
      e.udrop = udrop;
      break;
    }
    case Outcome::kPending:
      return;  // unreachable (ResolveQuery asserts)
  }
  pending_reject_reason_ = nullptr;
  params_.trace->Emit(e);
}

UNIT_COLD void Engine::TraceSessionEvent(TraceEventType type,
                                         const Transaction& t,
                                         const SessionDecision& d) {
  TraceEvent e;
  e.time = now_;
  e.type = type;
  e.txn = t.id();
  e.session = d.session;
  e.request = t.trace_id();
  e.resolved = d.attempt;
  if (type == TraceEventType::kSessionRetry) e.lag = d.delay;
  params_.trace->Emit(e);
}

UNIT_COLD void Engine::TraceCacheInvalidate(ItemId item, TxnId txn) {
  TraceEvent e;
  e.time = now_;
  e.type = TraceEventType::kCacheInvalidate;
  e.item = item;
  e.txn = txn;
  params_.trace->Emit(e);
}

UNIT_COLD void Engine::TraceFaultEdge(const FaultEdge& edge) {
  TraceEvent e;
  e.time = now_;
  e.type = edge.start ? TraceEventType::kFaultStart : TraceEventType::kFaultStop;
  e.txn = edge.fault;
  e.set_reason(FaultKindName(edge.kind));
  e.item = edge.item_count > 0 ? params_.faults->items()[edge.item_begin]
                               : kInvalidItem;
  e.resolved = edge.item_count;
  e.magnitude = edge.magnitude;
  params_.trace->Emit(e);
}

void Engine::RecordWindowSample() {
  WindowSample s;
  s.t_s = SimToSeconds(now_);
  TakeWindowDeltas(metrics_, &series_totals_, &s);
  const double busy = BusySeconds();
  const double window_s = SimToSeconds(now_ - series_last_sample_);
  s.utilization =
      window_s > 0.0 ? (busy - series_last_busy_) / window_s : 0.0;
  series_last_busy_ = busy;
  series_last_sample_ = now_;
  s.ready_queries = ready_.query_count();
  s.ready_updates = ready_.update_count();
  udrop_scratch_.clear();
  for (ItemId i = 0; i < db_.num_items(); ++i) {
    udrop_scratch_.push_back(db_.Udrop(i, now_));
  }
  if (!udrop_scratch_.empty()) {
    std::sort(udrop_scratch_.begin(), udrop_scratch_.end());
    const size_t n = udrop_scratch_.size();
    // Nearest-rank percentiles: ceil(p * n) - 1.
    auto rank = [n](int p) { return (static_cast<size_t>(p) * n + 99) / 100 - 1; };
    s.udrop_p50 = static_cast<double>(udrop_scratch_[rank(50)]);
    s.udrop_p90 = static_cast<double>(udrop_scratch_[rank(90)]);
    s.udrop_max = udrop_scratch_.back();
  }
  s.admission_knob = policy_->AdmissionKnob();
  s.degraded_items = db_.DegradedCount();
  params_.series->Record(s);
}

void Engine::ReadyInsert(Transaction* t) {
  ready_.Insert(t);
  if (t->is_query()) admission_index_.OnInsert(*t);
}

void Engine::ReadyRemove(Transaction* t) {
  ready_.Remove(t);
  if (t->is_query()) admission_index_.OnRemove(*t);
}

bool Engine::EventIsDead(const Event& e) const {
  if (e.type != EventType::kQueryDeadline) return false;
  const Transaction* t = txns_.Get(e.payload);
  return t == nullptr || t->Terminal();
}

}  // namespace unitdb
