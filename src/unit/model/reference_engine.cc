#include "unit/model/reference_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

#include "unit/common/logging.h"
#include "unit/faults/schedule.h"
#include "unit/obs/timeseries.h"
#include "unit/workload/query_source.h"

namespace unitdb {

ReferenceEngine::ReferenceEngine(const Workload& workload, Policy* policy,
                                 EngineParams params)
    : workload_(workload),
      policy_(policy),
      params_(params),
      db_(workload.num_items),
      rng_(params.seed),
      pending_updates_per_item_(workload.num_items, 0) {
  assert(policy_ != nullptr);
  // The reference engine has no trace emission sites; a sink would silently
  // see nothing, so refuse it outright rather than half-support it.
  params_.trace = nullptr;
  db_.SetSourceHorizon(workload.duration);
  workload_status_ = db_.ApplySpecs(workload.updates);
  metrics_.duration_s = SimToSeconds(workload.duration);
  queries_.reserve(static_cast<size_t>(workload.QueryCount()));
  QueryRequest q;
  auto cursor = workload.NewQueryCursor();
  while (cursor->Next(&q)) queries_.push_back(q);
  if (params_.faults != nullptr) {
    item_outage_.assign(workload.num_items, 0);
  }
  if (params_.session.sessions > 0) {
    session_patience_.assign(static_cast<size_t>(params_.session.sessions),
                             params_.session.patience);
  }
}

RunMetrics ReferenceEngine::Run() {
  assert(!ran_ && "ReferenceEngine::Run must be called at most once");
  ran_ = true;
  if (!workload_status_.ok()) {
    UNIT_LOG(Error) << "bad workload update specs: "
                    << workload_status_.ToString();
    std::abort();
  }
  policy_->Attach(*this);
  ScheduleInitialEvents();
  while (!events_.empty()) {
    const RefEvent e = PopNext();
    assert(e.time >= now_);
    now_ = e.time;
    switch (e.type) {
      case EventType::kQueryArrival:
        HandleQueryArrival(e.payload);
        break;
      case EventType::kUpdateArrival:
        HandleUpdateArrival(static_cast<ItemId>(e.payload));
        break;
      case EventType::kCompletion:
        HandleCompletion(e.payload);
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
    TryDispatch();  // after every event, as in the optimized engine
  }
  assert(running_ == nullptr);
  assert(ready_.empty());
  // Trailing partial control window, as in the optimized engine.
  if (params_.series != nullptr && now_ > series_last_sample_) {
    RecordWindowSample();
  }
  metrics_.per_item_accesses.resize(db_.num_items());
  metrics_.per_item_applied_updates.resize(db_.num_items());
  for (ItemId i = 0; i < db_.num_items(); ++i) {
    metrics_.per_item_accesses[i] = db_.item(i).query_accesses;
    metrics_.per_item_applied_updates[i] = db_.item(i).applied_updates;
  }
  return metrics_;
}

void ReferenceEngine::Push(SimTime time, EventType type, int64_t payload) {
  RefEvent e;
  e.time = time;
  e.seq = next_seq_++;
  e.type = type;
  e.payload = payload;
  events_.push_back(e);
}

ReferenceEngine::RefEvent ReferenceEngine::PopNext() {
  assert(!events_.empty());
  size_t best = 0;
  for (size_t i = 1; i < events_.size(); ++i) {
    const RefEvent& a = events_[i];
    const RefEvent& b = events_[best];
    if (a.time < b.time || (a.time == b.time && a.seq < b.seq)) best = i;
  }
  const RefEvent e = events_[best];
  events_.erase(events_.begin() + static_cast<ptrdiff_t>(best));
  return e;
}

void ReferenceEngine::CancelEvent(EventType type, TxnId id) {
  auto it = std::find_if(events_.begin(), events_.end(),
                         [type, id](const RefEvent& e) {
                           return e.type == type && e.payload == id;
                         });
  if (it != events_.end()) events_.erase(it);
}

bool ReferenceEngine::Before(const Transaction& a,
                             const Transaction& b) const {
  if (params_.discipline == QueueDiscipline::kEdf) {
    if (a.absolute_deadline() != b.absolute_deadline()) {
      return a.absolute_deadline() < b.absolute_deadline();
    }
  }
  return a.id() < b.id();
}

bool ReferenceEngine::HigherPriority(const Transaction& a,
                                     const Transaction& b) const {
  if (a.is_update() != b.is_update()) return a.is_update();
  return Before(a, b);
}

Transaction* ReferenceEngine::ReadyTop() const {
  Transaction* best = nullptr;
  for (Transaction* t : ready_) {
    if (best == nullptr || HigherPriority(*t, *best)) best = t;
  }
  return best;
}

void ReferenceEngine::ReadyInsert(Transaction* t) { ready_.push_back(t); }

void ReferenceEngine::ReadyRemove(Transaction* t) {
  auto it = std::find(ready_.begin(), ready_.end(), t);
  assert(it != ready_.end());
  ready_.erase(it);
}

int ReferenceEngine::ReadyQueryCount() const {
  int n = 0;
  for (const Transaction* t : ready_) n += t->is_query() ? 1 : 0;
  return n;
}

int ReferenceEngine::ReadyUpdateCount() const {
  int n = 0;
  for (const Transaction* t : ready_) n += t->is_update() ? 1 : 0;
  return n;
}

AdmissionProjection ReferenceEngine::ProjectAdmission(
    SimTime deadline, SimDuration extra, double dmf_cost,
    double rejection_cost) const {
  // EST: the running remainder, every queued update and the queued queries
  // due no later than the candidate. The later-deadline queries are kept in
  // EDF (deadline, id) order, whatever the dispatch discipline: admission
  // projects the EDF schedule.
  SimDuration est = 0;
  if (running_ != nullptr) est += running_->remaining() - (now_ - run_start_);
  std::vector<const Transaction*> later;
  for (const Transaction* t : ready_) {
    if (t->is_query() && t->absolute_deadline() > deadline) {
      later.push_back(t);
    } else {
      est += t->remaining();
    }
  }
  std::sort(later.begin(), later.end(),
            [](const Transaction* a, const Transaction* b) {
              if (a->absolute_deadline() != b->absolute_deadline()) {
                return a->absolute_deadline() < b->absolute_deadline();
              }
              return a->id() < b->id();
            });
  // Walk the schedule twice over, with and without `extra` ahead of it,
  // adding the DMF cost of each query only the candidate makes miss.
  SimTime with = now_ + est + extra;
  SimTime without = now_ + est;
  double endangered_cost = 0.0;
  for (const Transaction* q : later) {
    with += q->remaining();
    without += q->remaining();
    if (with > q->absolute_deadline() && without <= q->absolute_deadline()) {
      endangered_cost += dmf_cost;
    }
  }
  return {est, endangered_cost > rejection_cost};
}

Transaction* ReferenceEngine::NewQueryTxn(const QueryRequest& request) {
  const TxnId id = static_cast<TxnId>(txns_.size());
  SimDuration exec = request.exec;
  double freshness_req = request.freshness_req;
  if (params_.faults != nullptr) {
    // Guarded exactly like the optimized engine so an inactive fault layer
    // performs zero divergent operations.
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
  txns_.push_back(Transaction::MakeQuery(
      id, request.arrival, exec, request.relative_deadline, freshness_req,
      request.items, request.preference_class));
  Transaction* t = &txns_.back();
  t->set_trace_id(request.id);
  if (params_.estimate_noise_sigma > 0.0) {
    const double factor = rng_.LogNormal(0.0, params_.estimate_noise_sigma);
    t->set_estimate(std::max<SimDuration>(
        1, static_cast<SimDuration>(static_cast<double>(t->exec_time()) *
                                    factor)));
  }
  return t;
}

Transaction* ReferenceEngine::NewUpdateTxn(ItemId item,
                                           SimDuration relative_deadline,
                                           bool on_demand) {
  const TxnId id = static_cast<TxnId>(txns_.size());
  SimDuration exec = db_.item(item).update_exec;
  if (params_.faults != nullptr && fault_exec_scale_ != 1.0) {
    exec = std::max<SimDuration>(
        1, static_cast<SimDuration>(static_cast<double>(exec) *
                                    fault_exec_scale_));
  }
  txns_.push_back(Transaction::MakeUpdate(
      id, now_, exec, std::max<SimDuration>(1, relative_deadline), item,
      on_demand));
  ++pending_updates_per_item_[item];
  ++metrics_.updates_generated;
  return &txns_.back();
}

void ReferenceEngine::ScheduleInitialEvents() {
  // Push order is the FIFO tie-break contract shared with the optimized
  // engine: workload events first, then control ticks, then fault events.
  for (size_t i = 0; i < queries_.size(); ++i) {
    Push(queries_[i].arrival, EventType::kQueryArrival,
         static_cast<int64_t>(i));
  }
  if (policy_->UsesPeriodicUpdates()) {
    for (const auto& spec : workload_.updates) {
      if (spec.ideal_period <= 0 || spec.ideal_period >= kNoUpdates) continue;
      if (spec.phase < workload_.duration) {
        Push(spec.phase, EventType::kUpdateArrival, spec.item);
      }
    }
  }
  if (params_.control_period > 0 &&
      params_.control_period <= workload_.duration) {
    Push(params_.control_period, EventType::kControlTick, 0);
  }
  if (params_.faults != nullptr) {
    const FaultSchedule& faults = *params_.faults;
    for (size_t i = 0; i < faults.edges().size(); ++i) {
      Push(faults.edges()[i].time, EventType::kFaultEdge,
           static_cast<int64_t>(i));
    }
    for (size_t i = 0; i < faults.injected_queries().size(); ++i) {
      Push(faults.injected_queries()[i].arrival,
           EventType::kFaultQueryArrival, static_cast<int64_t>(i));
    }
    for (size_t i = 0; i < faults.injected_updates().size(); ++i) {
      Push(faults.injected_updates()[i].time, EventType::kFaultUpdateArrival,
           static_cast<int64_t>(i));
    }
  }
}

void ReferenceEngine::HandleQueryArrival(int64_t query_index) {
  AdmitArrivedQuery(queries_[query_index]);
}

void ReferenceEngine::AdmitArrivedQuery(const QueryRequest& request,
                                        bool resubmit) {
  Transaction* t = NewQueryTxn(request);
  ++metrics_.counts.submitted;
  if (!resubmit && params_.session.sessions > 0 &&
      t->trace_id() != kInvalidTxn) {
    ++metrics_.session_requests;
    RefChain c;
    c.trace_id = t->trace_id();
    c.request = request;
    chains_.push_back(std::move(c));
  }
  // Result cache sits before admission control, as in the optimized engine:
  // a covered, fresh-enough query is answered immediately and never enters
  // the ready queue (its deadline event is never pushed).
  if (params_.cache.capacity > 0 && TryServeFromCache(t)) return;
  if (!policy_->AdmitQuery(*this, *t)) {
    t->set_state(TxnState::kAborted);
    ResolveQuery(t, Outcome::kRejected);
    return;
  }
  t->set_state(TxnState::kReady);
  ReadyInsert(t);
  Push(t->absolute_deadline(), EventType::kQueryDeadline, t->id());
  if (params_.shed_watermark > 0) MaybeShed();
}

void ReferenceEngine::MaybeShed() {
  while (ReadyQueryCount() > params_.shed_watermark) {
    Transaction* victim = nullptr;
    for (Transaction* t : ready_) {
      if (!t->is_query()) continue;
      if (victim == nullptr || t->arrival() < victim->arrival() ||
          (t->arrival() == victim->arrival() && t->id() < victim->id())) {
        victim = t;
      }
    }
    assert(victim != nullptr && "query count > 0 implies a ready query");
    ++metrics_.queries_shed;
    // Erase the victim's pending deadline event eagerly, as the commit path
    // does: a stale deadline left behind would advance this engine's clock
    // (and the final window flush) past the optimized engine's, which skips
    // tombstoned events without touching now_.
    CancelEvent(EventType::kQueryDeadline, victim->id());
    AbortQuery(victim, Outcome::kRejected);
  }
}

bool ReferenceEngine::RefCacheCovers(const Transaction& t) const {
  for (ItemId item : t.items()) {
    if (std::find(cache_items_.begin(), cache_items_.end(), item) ==
        cache_items_.end()) {
      return false;
    }
  }
  return true;
}

void ReferenceEngine::RefCachePopulate(ItemId item) {
  if (std::find(cache_items_.begin(), cache_items_.end(), item) !=
      cache_items_.end()) {
    return;  // present entries keep their original population slot
  }
  if (cache_items_.size() >= static_cast<size_t>(params_.cache.capacity)) {
    cache_items_.erase(cache_items_.begin());  // FIFO: evict the oldest
  }
  cache_items_.push_back(item);
}

bool ReferenceEngine::RefCacheInvalidate(ItemId item) {
  auto it = std::find(cache_items_.begin(), cache_items_.end(), item);
  if (it == cache_items_.end()) return false;
  cache_items_.erase(it);
  return true;
}

bool ReferenceEngine::TryServeFromCache(Transaction* t) {
  if (!RefCacheCovers(*t)) {
    ++metrics_.cache_misses;
    return false;
  }
  // Entries are invalidated on every newer install, so each covered item's
  // live Udrop is exactly the staleness of its cached data (see the
  // optimized Engine::TryServeFromCache).
  int64_t udrop = 0;
  for (ItemId item : t->items()) {
    udrop = std::max(udrop, db_.Udrop(item, now_));
  }
  const double freshness = 1.0 / (1.0 + static_cast<double>(udrop));
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
  ResolveQuery(t, Outcome::kSuccess);
  return true;
}

void ReferenceEngine::HandleClientResubmit(int64_t resubmit_index) {
  QueryRequest request = resubmits_[static_cast<size_t>(resubmit_index)];
  request.arrival = now_;
  AdmitArrivedQuery(request, /*resubmit=*/true);
}

void ReferenceEngine::HandleUpdateArrival(ItemId item) {
  if (now_ >= workload_.duration) return;
  DataItemState& state = db_.mutable_item(item);
  const SimTime next = now_ + state.ideal_period;
  if (next < workload_.duration) {
    Push(next, EventType::kUpdateArrival, item);
  }
  if (params_.faults != nullptr && item_outage_[item] > 0) {
    ++metrics_.fault_suppressed_updates;
    return;
  }
  policy_->OnUpdateSourceArrival(*this, item);
  const bool due = state.last_pull < 0 ||
                   (now_ - state.last_pull) + state.ideal_period / 2 >=
                       state.current_period;
  if (!due) {
    ++metrics_.updates_dropped;
    return;
  }
  state.last_pull = now_;
  Transaction* t = NewUpdateTxn(item, state.current_period,
                                /*on_demand=*/false);
  t->set_state(TxnState::kReady);
  ReadyInsert(t);
}

TxnId ReferenceEngine::IssueOnDemandUpdate(ItemId item) {
  const DataItemState& state = db_.item(item);
  Transaction* t =
      NewUpdateTxn(item, std::max<SimDuration>(1, state.update_exec),
                   /*on_demand=*/true);
  t->set_state(TxnState::kReady);
  ReadyInsert(t);
  ++metrics_.on_demand_updates;
  return t->id();
}

void ReferenceEngine::HandleCompletion(TxnId id) {
  Transaction* t = &txns_[id];
  // Stale completions are erased eagerly, so a popped one is always live.
  if (t != running_ || t->state() != TxnState::kRunning) {
    assert(false && "stale completion event survived eager cancellation");
    return;
  }
  CompleteRunning(t);
}

void ReferenceEngine::HandleQueryDeadline(TxnId id) {
  Transaction* t = &txns_[id];
  if (t->Terminal()) return;
  AbortQuery(t, Outcome::kDeadlineMiss);
}

void ReferenceEngine::HandleControlTick() {
  policy_->OnControlTick(*this);
  if (params_.series != nullptr) RecordWindowSample();
  const SimTime next = now_ + params_.control_period;
  if (next <= workload_.duration) {
    Push(next, EventType::kControlTick, 0);
  }
}

void ReferenceEngine::HandleFaultEdge(int64_t edge_index) {
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
      break;
  }
}

void ReferenceEngine::HandleFaultQueryArrival(int64_t injected_index) {
  ++metrics_.fault_injected_queries;
  AdmitArrivedQuery(params_.faults->injected_queries()[injected_index]);
}

void ReferenceEngine::HandleFaultUpdateArrival(int64_t injected_index) {
  if (now_ >= workload_.duration) return;
  const ItemId item = params_.faults->injected_updates()[injected_index].item;
  if (item_outage_[item] > 0) {
    ++metrics_.fault_suppressed_updates;
    return;
  }
  DataItemState& state = db_.mutable_item(item);
  policy_->OnUpdateSourceArrival(*this, item);
  state.last_pull = now_;
  Transaction* t = NewUpdateTxn(item, state.current_period,
                                /*on_demand=*/false);
  t->set_state(TxnState::kReady);
  ReadyInsert(t);
  ++metrics_.fault_injected_updates;
}

void ReferenceEngine::TryDispatch() {
  while (true) {
    Transaction* top = ReadyTop();
    if (running_ != nullptr) {
      if (top == nullptr || !HigherPriority(*top, *running_)) {
        return;
      }
      PreemptRunning();
      continue;
    }
    if (top == nullptr) return;
    ReadyRemove(top);
    if (top->is_query() && !policy_->BeforeQueryDispatch(*this, *top)) {
      top->set_state(TxnState::kReady);
      ReadyInsert(top);
      Transaction* new_top = ReadyTop();
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

void ReferenceEngine::StartRunning(Transaction* t) {
  t->set_state(TxnState::kRunning);
  running_ = t;
  run_start_ = now_;
  Push(now_ + t->remaining(), EventType::kCompletion, t->id());
}

void ReferenceEngine::PreemptRunning() {
  Transaction* t = running_;
  const SimDuration ran = now_ - run_start_;
  metrics_.busy_s += SimToSeconds(ran);
  t->set_remaining(t->remaining() - ran);
  CancelEvent(EventType::kCompletion, t->id());
  t->set_state(TxnState::kReady);
  running_ = nullptr;
  ReadyInsert(t);
  ++metrics_.preemptions;
}

std::vector<Transaction*> ReferenceEngine::LockHolders(ItemId item) const {
  std::vector<Transaction*> candidates = ready_;
  if (running_ != nullptr) candidates.push_back(running_);
  std::vector<Transaction*> holders;
  for (Transaction* h : candidates) {
    if (!h->holds_locks()) continue;
    for (ItemId locked : h->items()) {
      if (locked == item) {
        holders.push_back(h);
        break;
      }
    }
  }
  std::sort(holders.begin(), holders.end(),
            [](const Transaction* a, const Transaction* b) {
              return a->id() < b->id();
            });
  return holders;
}

bool ReferenceEngine::AcquireLocks(Transaction* t) {
  // An X holder of any item t locks blocks t. Past that, an update restarts
  // the S holders of its item (queries, a lower class), in id order.
  for (ItemId item : t->items()) {
    for (const Transaction* h : LockHolders(item)) {
      if (h->is_update()) {
        BlockOnLocks(t);
        return false;
      }
    }
  }
  if (t->is_update()) {
    for (Transaction* victim : LockHolders(t->update_item())) {
      RestartQuery(victim);
    }
  }
  t->set_holds_locks(true);
  return true;
}

void ReferenceEngine::BlockOnLocks(Transaction* t) {
  assert(!t->holds_locks());
  t->set_state(TxnState::kBlocked);
  blocked_.push_back(t);
}

void ReferenceEngine::UnblockAll() {
  if (blocked_.empty()) return;
  for (Transaction* t : blocked_) {
    if (t->Terminal()) continue;  // deadline fired while blocked
    t->set_state(TxnState::kReady);
    ReadyInsert(t);
  }
  blocked_.clear();
}

void ReferenceEngine::RestartQuery(Transaction* t) {
  assert(t->is_query());
  assert(t->state() == TxnState::kReady &&
         "2PL-HP victims sit in the ready queue");
  ReadyRemove(t);
  ReleaseLocksOf(t);
  t->ResetWork();
  t->IncrementRestarts();
  t->set_state(TxnState::kReady);
  ReadyInsert(t);
  ++metrics_.lock_restarts;
}

void ReferenceEngine::AbortQuery(Transaction* t, Outcome outcome) {
  assert(t->is_query());
  if (t == running_) {
    const SimDuration ran = now_ - run_start_;
    metrics_.busy_s += SimToSeconds(ran);
    t->set_remaining(t->remaining() - ran);
    CancelEvent(EventType::kCompletion, t->id());
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

void ReferenceEngine::ResolveQuery(Transaction* t, Outcome outcome) {
  t->set_outcome(outcome);
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
  if (params_.session.sessions > 0 && t->trace_id() != kInvalidTxn) {
    OnSessionOutcome(t, outcome);
  }
}

void ReferenceEngine::OnSessionOutcome(Transaction* t, Outcome outcome) {
  // Naive mirror of SessionPool::OnOutcome (session/session.h): same
  // decision order — done / retries exhausted / patience / defect hook /
  // retry — and the same pure SessionOf / RetryDelay arithmetic, but the
  // chain is found by a linear scan instead of a hash lookup.
  const TxnId trace_id = t->trace_id();
  size_t idx = chains_.size();
  for (size_t i = 0; i < chains_.size(); ++i) {
    if (chains_[i].trace_id == trace_id) {
      idx = i;
      break;
    }
  }
  if (idx == chains_.size()) return;  // chain already dropped
  const SessionParams& sp = params_.session;
  const int session = SessionOf(sp.seed, trace_id, sp.sessions);
  RefChain& c = chains_[idx];
  const auto drop_chain = [this, idx] {
    chains_.erase(chains_.begin() + static_cast<ptrdiff_t>(idx));
  };
  if (outcome == Outcome::kSuccess || outcome == Outcome::kDataStale) {
    ++metrics_.session_successes;
    drop_chain();
    return;
  }
  if (c.retries >= sp.max_retries) {
    ++metrics_.session_abandons;
    drop_chain();
    return;
  }
  const SimDuration delay =
      RetryDelay(sp, session, trace_id, c.retries, c.prev_delay);
  if (sp.patience > 0) {
    SimDuration& budget = session_patience_[static_cast<size_t>(session)];
    if (budget < delay) {
      ++metrics_.session_abandons;
      drop_chain();
      return;
    }
    budget -= delay;
  }
  if (sp.drop_retry_at > 0 && ++retry_decisions_ == sp.drop_retry_at) {
    drop_chain();  // the injected defect: decision silently dropped
    return;
  }
  c.retries += 1;
  c.prev_delay = delay;
  resubmits_.push_back(c.request);
  Push(now_ + delay, EventType::kClientResubmit,
       static_cast<int64_t>(resubmits_.size() - 1));
  ++metrics_.session_retries;
  metrics_.session_retry_delay_s.Add(SimToSeconds(delay));
}

void ReferenceEngine::ReleaseLocksOf(Transaction* t) {
  if (!t->holds_locks()) return;
  t->set_holds_locks(false);
  UnblockAll();
}

void ReferenceEngine::CompleteRunning(Transaction* t) {
  const SimDuration ran = now_ - run_start_;
  metrics_.busy_s += SimToSeconds(ran);
  t->set_remaining(0);
  running_ = nullptr;
  t->set_state(TxnState::kCommitted);
  t->set_commit_time(now_);
  if (t->is_update()) {
    db_.ApplyUpdate(t->update_item(), t->arrival());
    --pending_updates_per_item_[t->update_item()];
    ++metrics_.update_commits;
    metrics_.update_latency_s.Add(SimToSeconds(now_ - t->arrival()));
    if (params_.cache.capacity > 0 && RefCacheInvalidate(t->update_item())) {
      ++metrics_.cache_invalidations;
    }
    ReleaseLocksOf(t);
    policy_->OnUpdateCommit(*this, *t);
    return;
  }
  // Query commit: its deadline event is still pending; erase it eagerly
  // (the optimized engine tombstones it instead).
  CancelEvent(EventType::kQueryDeadline, t->id());
  const double freshness = db_.QueryFreshness(t->items(), now_);
  t->set_observed_freshness(freshness);
  for (ItemId item : t->items()) db_.RecordAccess(item);
  if (params_.cache.capacity > 0) {
    for (ItemId item : t->items()) RefCachePopulate(item);
  }
  ReleaseLocksOf(t);
  metrics_.query_response_s.Add(SimToSeconds(now_ - t->arrival()));
  metrics_.query_freshness.Add(freshness);
  const Outcome outcome = freshness >= t->freshness_req()
                              ? Outcome::kSuccess
                              : Outcome::kDataStale;
  ResolveQuery(t, outcome);
}

void ReferenceEngine::RecordWindowSample() {
  WindowSample s;
  s.t_s = SimToSeconds(now_);
  TakeWindowDeltas(metrics_, &series_totals_, &s);
  const double busy = BusySeconds();
  const double window_s = SimToSeconds(now_ - series_last_sample_);
  s.utilization =
      window_s > 0.0 ? (busy - series_last_busy_) / window_s : 0.0;
  series_last_busy_ = busy;
  series_last_sample_ = now_;
  s.ready_queries = ReadyQueryCount();
  s.ready_updates = ReadyUpdateCount();
  udrop_scratch_.clear();
  for (ItemId i = 0; i < db_.num_items(); ++i) {
    udrop_scratch_.push_back(db_.Udrop(i, now_));
  }
  if (!udrop_scratch_.empty()) {
    std::sort(udrop_scratch_.begin(), udrop_scratch_.end());
    const size_t n = udrop_scratch_.size();
    auto rank = [n](int p) {
      return (static_cast<size_t>(p) * n + 99) / 100 - 1;
    };
    s.udrop_p50 = static_cast<double>(udrop_scratch_[rank(50)]);
    s.udrop_p90 = static_cast<double>(udrop_scratch_[rank(90)]);
    s.udrop_max = udrop_scratch_.back();
  }
  s.admission_knob = policy_->AdmissionKnob();
  s.degraded_items = db_.DegradedCount();
  params_.series->Record(s);
}

}  // namespace unitdb
