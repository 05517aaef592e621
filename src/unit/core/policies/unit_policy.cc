#include "unit/core/policies/unit_policy.h"

#include "unit/obs/trace_sink.h"
#include "unit/db/database.h"
#include "unit/sched/engine_context.h"

namespace unitdb {

UnitPolicy::UnitPolicy(const UsmWeights& weights, UnitParams params)
    : UnitPolicy(std::vector<UsmWeights>{weights}, params) {}

UnitPolicy::UnitPolicy(std::vector<UsmWeights> class_weights,
                       UnitParams params)
    : class_weights_(std::move(class_weights)),
      params_(params),
      admission_(params.admission, WeightsForClass(class_weights_, 0)),
      modulator_(1, params.modulation),
      lbc_(params.lbc, class_weights_),
      rng_(params.seed) {}

void UnitPolicy::Attach(EngineContext& engine) {
  modulator_ = UpdateModulator(engine.db(), params_.modulation);
  modulator_.set_trace(engine.params().trace);
}

bool UnitPolicy::AdmitQuery(EngineContext& engine, const Transaction& query) {
  if (!params_.enable_admission_control) return true;
  const bool admit = admission_.Admit(
      engine, query,
      WeightsForClass(class_weights_, query.preference_class()));
  if (!admit) engine.ReportRejectReason(admission_.last_reject_reason());
  return admit;
}

void UnitPolicy::OnQueryResolved(EngineContext& engine, const Transaction& query,
                                 Outcome outcome) {
  // Ticket accounting counts actual data accesses: queries that committed
  // (successfully or stale) read their items; rejected/aborted ones did not.
  if (outcome != Outcome::kSuccess && outcome != Outcome::kDataStale) return;
  for (ItemId item : query.items()) {
    modulator_.OnQueryAccess(item, query, engine.now());
    const DataItemState& state = engine.db().item(item);
    if (outcome == Outcome::kDataStale &&
        engine.db().Freshness(item, engine.now()) < query.freshness_req()) {
      modulator_.OnStaleAccess(item);
      // The push feed has the newest value buffered; repair the observed
      // staleness right away so followers read fresh data.
      if (engine.PendingUpdatesForItem(item) == 0) {
        engine.IssueOnDemandUpdate(item);
      }
    } else if (state.current_period > state.ideal_period &&
               modulator_.ticket(item) <= 0.0) {
      // A user touched a degraded, demand-heavy item: register demand so
      // the next Upgrade signal restores it before a freshness miss
      // accrues. (Over-updated items — positive tickets — are degraded on
      // purpose; touching them is not a reason to restore.)
      modulator_.OnDegradedAccess(item);
    }
  }
}

void UnitPolicy::OnUpdateSourceArrival(EngineContext& engine, ItemId item) {
  modulator_.OnUpdateArrival(item, engine.db().item(item).update_exec,
                             engine.now());
}

void UnitPolicy::OnControlTick(EngineContext& engine) {
  // Windowed CPU utilization over the last tick, for the preventive trigger.
  const double busy = engine.BusySeconds();
  const double window_s = SimToSeconds(engine.now() - last_tick_);
  const double utilization =
      window_s > 0.0 ? (busy - last_busy_s_) / window_s : 0.0;
  last_busy_s_ = busy;
  last_tick_ = engine.now();

  const LbcDecision decision = lbc_.TickDecision(
      engine.now(), engine.per_class_counts(), utilization, rng_);
  const ControlSignal signal = decision.signal;
  ++signal_counts_[static_cast<int>(signal)];
  const double knob_before = AdmissionKnob();
  switch (signal) {
    case ControlSignal::kNone:
      break;
    case ControlSignal::kLoosenAdmission:
      if (params_.enable_admission_control) admission_.Loosen();
      break;
    case ControlSignal::kDegradeAndTighten:
      if (params_.enable_update_modulation) {
        modulator_.Degrade(engine.db(), rng_, engine.now());
      }
      if (params_.enable_admission_control) admission_.Tighten();
      break;
    case ControlSignal::kPreventiveDegrade:
      if (params_.enable_update_modulation) {
        modulator_.Degrade(engine.db(), rng_, engine.now());
      }
      break;
    case ControlSignal::kUpgradeUpdates:
      if (params_.enable_update_modulation) {
        // Push feeds keep delivering values while application is shed; on
        // restore, apply the buffered newest value right away instead of
        // waiting up to a full period for the next arrival.
        for (ItemId item : modulator_.Upgrade(engine.db(), engine.now())) {
          if (engine.db().Udrop(item, engine.now()) > 0 &&
              engine.PendingUpdatesForItem(item) == 0) {
            engine.IssueOnDemandUpdate(item);
          }
        }
      }
      break;
  }
  // One trace record per adaptive-allocation pass (including the "none"
  // verdict): the ratios it weighed, what it chose, and how the admission
  // knob moved. tools/trace_check re-verifies the Fig. 2 rule from these.
  TraceSink* trace = engine.params().trace;
  if (trace != nullptr && decision.evaluated) {
    TraceEvent e;
    e.time = engine.now();
    e.type = TraceEventType::kLbcSignal;
    e.set_reason(ControlSignalName(signal));
    e.r = decision.r;
    e.fm = decision.fm;
    e.fs = decision.fs;
    e.utilization = decision.utilization;
    e.resolved = decision.resolved;
    e.drop_trigger = decision.drop_triggered;
    e.knob_before = knob_before;
    e.knob = AdmissionKnob();
    trace->Emit(e);
  }
}

}  // namespace unitdb
