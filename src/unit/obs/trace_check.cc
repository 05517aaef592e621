#include "unit/obs/trace_check.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "unit/faults/scenario.h"

namespace unitdb {

namespace {

// Eq. 1 tolerance. Values round-trip bit-exactly through %.17g, so this only
// absorbs the divide in 1/(1 + Udrop) being re-done here.
constexpr double kFreshnessEps = 1e-12;

enum class TxnPhase { kArrived, kAdmitted, kDone };

class Checker {
 public:
  TraceCheckResult Run(const std::vector<TraceEvent>& events) {
    for (size_t pos = 0; pos < events.size(); ++pos) {
      const TraceEvent& e = events[pos];
      ++result_.events;
      CheckTime(e);
      switch (e.type) {
        case TraceEventType::kQueryArrival:
          ++result_.arrivals;
          OnArrival(e);
          break;
        case TraceEventType::kAdmit:
          ++result_.admits;
          OnAdmit(e);
          break;
        case TraceEventType::kReject:
          ++result_.rejects;
          OnReject(e);
          break;
        case TraceEventType::kPreempt:
        case TraceEventType::kLockRestart:
          RequireAdmitted(e, e.type == TraceEventType::kPreempt
                                 ? "preempt"
                                 : "lock-restart");
          break;
        case TraceEventType::kCommit:
          ++result_.commits;
          OnCommit(e);
          break;
        case TraceEventType::kDeadlineMiss:
          ++result_.deadline_misses;
          OnDeadlineMiss(e);
          break;
        case TraceEventType::kUpdateArrival:
          ++result_.update_arrivals;
          arrivals_[e.item].push_back(e.time);
          break;
        case TraceEventType::kUpdateDrop:
          ++result_.update_drops;
          break;
        case TraceEventType::kUpdateApply:
          ++result_.update_applies;
          if (e.lag < 0) Violation(5, e, "update-apply with negative lag");
          applies_[e.item].emplace_back(static_cast<int64_t>(pos),
                                        e.time - e.lag);
          last_apply_[e.item] = {e.time, e.txn};
          break;
        case TraceEventType::kPeriodChange:
          OnPeriodChange(e);
          break;
        case TraceEventType::kLbcSignal:
          ++result_.lbc_signals;
          OnLbcSignal(e);
          break;
        case TraceEventType::kFaultStart:
          ++result_.fault_starts;
          OnFaultStart(e);
          break;
        case TraceEventType::kFaultStop:
          ++result_.fault_stops;
          OnFaultStop(e);
          break;
        case TraceEventType::kSessionRetry:
          ++result_.session_retries;
          OnSessionRetry(e);
          break;
        case TraceEventType::kSessionAbandon:
          ++result_.session_abandons;
          OnSessionAbandon(e);
          break;
        case TraceEventType::kShed:
          ++result_.sheds;
          OnShed(e);
          break;
        case TraceEventType::kCacheHit:
          ++result_.cache_hits;
          OnCacheHit(e, static_cast<int64_t>(pos));
          break;
        case TraceEventType::kCacheInvalidate:
          ++result_.cache_invalidations;
          OnCacheInvalidate(e);
          break;
      }
    }
    // Invariant 2 epilogue: nothing admitted may be left without a terminal
    // outcome — firm deadlines guarantee every admitted query resolves.
    for (const auto& [txn, phase] : txns_) {
      if (phase == TxnPhase::kAdmitted) {
        Record(2, "txn " + std::to_string(txn) +
                      " admitted but has no terminal outcome");
      }
    }
    // Invariant 6 epilogue: every fault window closes before the trace ends
    // (the schedule compiler clamps stop edges to the run duration).
    for (const auto& [fault, kind] : active_faults_) {
      Record(6, "fault " + std::to_string(fault) + " (" + kind +
                    ") started but never stopped");
    }
    // Invariant 8 epilogue (staleness leg): re-derive each hit's Udrop from
    // the item's update history. Deferred to the end so same-instant grid
    // arrivals serialized after the hit still count (the engine's
    // generation-at-time is analytic, independent of event order), while
    // applies are replayed in trace order, which IS engine order. The model
    // is exact only for fault-free traces with periodic arrivals — bursts
    // and outages skew the grid, and on-demand-only runs emit no arrival
    // events — so other traces skip this leg.
    if (!saw_fault_ && result_.update_arrivals > 0) {
      for (const HitCheck& h : hits_) {
        const int64_t expected = ModelUdrop(h);
        if (expected != h.udrop) {
          Record(8, "t=" + std::to_string(h.time) + " cache-hit: udrop " +
                        std::to_string(h.udrop) + " for item " +
                        std::to_string(h.item) +
                        " contradicts the item's update history (expected " +
                        std::to_string(expected) + ")");
        }
      }
    }
    return result_;
  }

 private:
  void Record(int invariant, std::string what) {
    ++result_.violation_count;
    ++result_.invariant_violations[invariant];
    if (result_.violation_count <= TraceCheckResult::kMaxRecordedViolations) {
      result_.violations.push_back("[invariant " + std::to_string(invariant) +
                                   "] " + std::move(what));
    }
  }

  void Violation(int invariant, const TraceEvent& e,
                 const std::string& what) {
    Record(invariant, "t=" + std::to_string(e.time) + " " +
                          TraceEventTypeName(e.type) + ": " + what);
  }

  void CheckTime(const TraceEvent& e) {
    if (e.time < last_time_) Violation(1, e, "timestamp went backwards");
    last_time_ = e.time;
  }

  TxnPhase* Find(const TraceEvent& e, const char* what) {
    auto it = txns_.find(e.txn);
    if (it == txns_.end()) {
      Violation(2, e, std::string(what) + " for unknown txn " +
                       std::to_string(e.txn));
      return nullptr;
    }
    return &it->second;
  }

  void OnArrival(const TraceEvent& e) {
    if (!txns_.emplace(e.txn, TxnPhase::kArrived).second) {
      Violation(2, e, "duplicate arrival for txn " + std::to_string(e.txn));
    }
  }

  void OnAdmit(const TraceEvent& e) {
    TxnPhase* phase = Find(e, "admit");
    if (phase == nullptr) return;
    if (*phase != TxnPhase::kArrived) {
      Violation(2, e, "admit out of order for txn " + std::to_string(e.txn));
    }
    *phase = TxnPhase::kAdmitted;
  }

  void OnReject(const TraceEvent& e) {
    TxnPhase* phase = Find(e, "reject");
    if (phase == nullptr) return;
    if (*phase != TxnPhase::kArrived) {
      Violation(2, e, "reject of a non-pending txn " + std::to_string(e.txn));
    }
    *phase = TxnPhase::kDone;
    failed_txns_.insert(e.txn);
  }

  void RequireAdmitted(const TraceEvent& e, const char* what) {
    TxnPhase* phase = Find(e, what);
    if (phase != nullptr && *phase != TxnPhase::kAdmitted) {
      Violation(2, e, std::string(what) + " of a txn that is not running");
    }
  }

  void OnCommit(const TraceEvent& e) {
    RequireAdmitted(e, "commit");
    auto it = txns_.find(e.txn);
    if (it != txns_.end()) it->second = TxnPhase::kDone;

    const bool is_success = std::strcmp(e.reason, "success") == 0;
    const bool is_stale = std::strcmp(e.reason, "dsf") == 0;
    if (is_success) ++result_.success;
    if (is_stale) ++result_.stale;
    if (!is_success && !is_stale) {
      Violation(3, e, std::string("unknown commit outcome \"") + e.reason + "\"");
      return;
    }
    // Invariant 3: Eq. 1 freshness accounting. The committed freshness must
    // equal 1/(1 + Udrop) for the staleness-dominant item, and the outcome
    // must follow from the freshness requirement.
    if (e.udrop < 0) {
      Violation(3, e, "commit without Udrop accounting");
      return;
    }
    const double expected = 1.0 / (1.0 + static_cast<double>(e.udrop));
    if (std::fabs(e.freshness - expected) > kFreshnessEps) {
      Violation(3, e, "freshness " + std::to_string(e.freshness) +
                       " != 1/(1+Udrop) = " + std::to_string(expected));
    }
    const bool should_succeed = e.freshness >= e.freshness_req;
    if (is_success != should_succeed) {
      Violation(3, e, "outcome " + std::string(e.reason) +
                       " contradicts freshness " + std::to_string(e.freshness) +
                       " vs required " + std::to_string(e.freshness_req));
    }
  }

  void OnDeadlineMiss(const TraceEvent& e) {
    RequireAdmitted(e, "deadline-miss");
    auto it = txns_.find(e.txn);
    if (it != txns_.end()) it->second = TxnPhase::kDone;
    failed_txns_.insert(e.txn);
  }

  /// Invariant 7 (shed leg): overload shedding evicts an *admitted* ready
  /// query (it is a terminal outcome for invariant 2), the watermark must be
  /// active (>= 1), and the pre-eviction ready depth must strictly exceed it
  /// — shedding below or at the watermark is forbidden.
  void OnShed(const TraceEvent& e) {
    RequireAdmitted(e, "shed");
    auto it = txns_.find(e.txn);
    if (it != txns_.end()) it->second = TxnPhase::kDone;
    failed_txns_.insert(e.txn);
    const int64_t watermark = static_cast<int64_t>(e.magnitude);
    if (watermark < 1) {
      Violation(7, e, "shed with inactive watermark " +
                       std::to_string(watermark));
    } else if (e.resolved <= watermark) {
      Violation(7, e, "shed at ready depth " + std::to_string(e.resolved) +
                       " <= watermark " + std::to_string(watermark));
    }
  }

  /// Invariant 7 (retry leg): a retry is only scheduled in reaction to a
  /// failed attempt, so its txn must already have a reject / deadline-miss /
  /// shed on record; per request chain the attempt counter increments from 1
  /// and the backoff delay never shrinks.
  void OnSessionRetry(const TraceEvent& e) {
    if (failed_txns_.find(e.txn) == failed_txns_.end()) {
      Violation(7, e, "retry without a prior reject/miss/shed for txn " +
                       std::to_string(e.txn));
    }
    ChainState& c = chains_[e.request];
    if (e.resolved != c.last_attempt + 1) {
      Violation(7, e, "request " + std::to_string(e.request) +
                       " retry attempt " + std::to_string(e.resolved) +
                       " does not follow attempt " +
                       std::to_string(c.last_attempt));
    }
    if (e.lag < 1) {
      Violation(7, e, "retry with non-positive delay " +
                       std::to_string(e.lag));
    } else if (e.lag < c.last_delay) {
      Violation(7, e, "request " + std::to_string(e.request) +
                       " backoff delay shrank from " +
                       std::to_string(c.last_delay) + " to " +
                       std::to_string(e.lag));
    }
    c.last_attempt = e.resolved;
    c.last_delay = e.lag;
  }

  /// Invariant 7 (abandon leg): abandonment is also a reaction to a failed
  /// attempt and must be the chain's next attempt number.
  void OnSessionAbandon(const TraceEvent& e) {
    if (failed_txns_.find(e.txn) == failed_txns_.end()) {
      Violation(7, e, "abandon without a prior reject/miss/shed for txn " +
                       std::to_string(e.txn));
    }
    auto it = chains_.find(e.request);
    const int last_attempt = it == chains_.end() ? 0 : it->second.last_attempt;
    if (e.resolved != last_attempt + 1) {
      Violation(7, e, "request " + std::to_string(e.request) +
                       " abandoned at attempt " + std::to_string(e.resolved) +
                       " after attempt " + std::to_string(last_attempt));
    }
    if (it != chains_.end()) chains_.erase(it);
  }

  /// One cache hit queued for the invariant 8 history epilogue.
  struct HitCheck {
    int64_t pos = 0;  ///< trace position (applies before it are installed)
    SimTime time = 0;
    ItemId item = kInvalidItem;
    int64_t udrop = 0;
  };

  /// Invariant 8 (hit leg): a hit is served on arrival, before admission —
  /// the terminal outcome of a still-pending txn (lifecycle itself is
  /// invariant 2, matching kShed). The hit must carry an active capacity, a
  /// "success" outcome, Eq. 1-consistent freshness, and freshness meeting
  /// the requirement; its Udrop claim is deferred to the history epilogue.
  void OnCacheHit(const TraceEvent& e, int64_t pos) {
    TxnPhase* phase = Find(e, "cache-hit");
    if (phase != nullptr) {
      if (*phase != TxnPhase::kArrived) {
        Violation(2, e, "cache-hit of a non-pending txn " +
                         std::to_string(e.txn));
      }
      *phase = TxnPhase::kDone;
    }
    if (e.resolved < 1) {
      Violation(8, e, "cache hit with the cache disabled (capacity " +
                       std::to_string(e.resolved) + ")");
    }
    if (std::strcmp(e.reason, "success") != 0) {
      Violation(8, e, std::string("cache hit with outcome \"") + e.reason +
                       "\" (hits are only ever served as success)");
      return;
    }
    if (e.udrop < 0) {
      Violation(8, e, "cache hit without Udrop accounting");
      return;
    }
    const double expected = 1.0 / (1.0 + static_cast<double>(e.udrop));
    if (std::fabs(e.freshness - expected) > kFreshnessEps) {
      Violation(8, e, "hit freshness " + std::to_string(e.freshness) +
                       " != 1/(1+Udrop) = " + std::to_string(expected));
    }
    if (e.freshness < e.freshness_req) {
      Violation(8, e, "hit served below the required freshness (" +
                       std::to_string(e.freshness) + " < " +
                       std::to_string(e.freshness_req) + ")");
    }
    if (e.item >= 0) {
      hits_.push_back({pos, e.time, e.item, e.udrop});
    }
  }

  /// Invariant 8 (invalidate leg): an entry is only erased by the update
  /// install that supersedes it — the same-instant apply of the same txn on
  /// the same item, which the engine emits immediately before.
  void OnCacheInvalidate(const TraceEvent& e) {
    auto it = last_apply_.find(e.item);
    if (it == last_apply_.end() || it->second.first != e.time ||
        it->second.second != e.txn) {
      Violation(8, e, "cache-invalidate of item " + std::to_string(e.item) +
                       " not paired with the update-apply installing it");
    }
  }

  /// Highest generation of `item` at or before `t` under the grid model:
  /// the n-th update arrival is generation n - 1 (-1 before the first).
  int64_t GenerationAt(ItemId item, SimTime t) const {
    auto it = arrivals_.find(item);
    if (it == arrivals_.end()) return -1;
    const std::vector<SimTime>& a = it->second;
    return static_cast<int64_t>(std::upper_bound(a.begin(), a.end(), t) -
                                a.begin()) -
           1;
  }

  /// The Udrop the database would report for the hit's item at hit time:
  /// generation at hit time minus the highest generation installed by the
  /// applies that precede the hit in trace order.
  int64_t ModelUdrop(const HitCheck& h) const {
    int64_t installed = -1;
    auto it = applies_.find(h.item);
    if (it != applies_.end()) {
      for (const auto& [pos, value_time] : it->second) {
        if (pos >= h.pos) break;  // applies are recorded in trace order
        installed = std::max(installed, GenerationAt(h.item, value_time));
      }
    }
    return std::max<int64_t>(0, GenerationAt(h.item, h.time) - installed);
  }

  void OnPeriodChange(const TraceEvent& e) {
    if (std::strcmp(e.reason, "degrade") == 0) {
      if (e.period_to <= e.period_from) {
        Violation(5, e, "degrade did not stretch the period");
      }
    } else if (std::strcmp(e.reason, "upgrade") == 0) {
      if (e.period_to >= e.period_from) {
        Violation(5, e, "upgrade did not shrink the period");
      }
    } else {
      Violation(5, e, std::string("unknown period-change reason \"") + e.reason +
                       "\"");
    }
  }

  void OnLbcSignal(const TraceEvent& e) {
    // Invariant 4: the Fig. 2 dominant-penalty rule. The event carries the
    // post-floor weighted ratios the controller chose between; the chosen
    // signal must target the (possibly tied) maximum, and the quiescent
    // signals require all ratios to have been floored to zero.
    const char* s = e.reason;
    bool rule_ok = true;
    if (std::strcmp(s, "loosen-ac") == 0) {
      rule_ok = e.r > 0.0 && e.r >= e.fm && e.r >= e.fs;
    } else if (std::strcmp(s, "degrade+tighten") == 0) {
      rule_ok = e.fm > 0.0 && e.fm >= e.r && e.fm >= e.fs;
    } else if (std::strcmp(s, "upgrade") == 0) {
      rule_ok = e.fs > 0.0 && e.fs >= e.r && e.fs >= e.fm;
    } else if (std::strcmp(s, "preventive-degrade") == 0 ||
               std::strcmp(s, "none") == 0) {
      rule_ok = e.r <= 0.0 && e.fm <= 0.0 && e.fs <= 0.0;
    } else {
      Violation(4, e, std::string("unknown LBC signal \"") + s + "\"");
      return;
    }
    if (!rule_ok) {
      Violation(4, e, std::string("signal ") + s + " violates dominant-penalty" +
                       " rule (r=" + std::to_string(e.r) +
                       " fm=" + std::to_string(e.fm) +
                       " fs=" + std::to_string(e.fs) + ")");
    }
    // Knob movement (only meaningful when the policy has an AC knob; both
    // fields are NaN otherwise). The knob is C_flex — larger is *tighter* —
    // so loosen-ac must not raise it and degrade+tighten must not lower it.
    // Either may saturate at its bound, so direction is checked, not strict
    // movement.
    if (!std::isnan(e.knob_before) && !std::isnan(e.knob)) {
      if (std::strcmp(s, "loosen-ac") == 0) {
        if (e.knob > e.knob_before) {
          Violation(4, e, "loosen-ac tightened the knob");
        }
      } else if (std::strcmp(s, "degrade+tighten") == 0) {
        if (e.knob < e.knob_before) {
          Violation(4, e, "degrade+tighten loosened the knob");
        }
      } else if (e.knob != e.knob_before) {
        Violation(4, e, std::string("signal ") + s + " moved the admission knob");
      }
    }
    CheckFaultResponse(e);
  }

  /// Invariant 6 response direction: while open fault windows unanimously
  /// pressure one penalty axis and the event shows that ratio as the strict
  /// (unique, positive) maximum, the controller must pick the relieving
  /// action. Scoped to strict maxima because the engine's LBC breaks ties
  /// among equal maximal ratios randomly — non-strict dominance carries no
  /// direction obligation.
  void CheckFaultResponse(const TraceEvent& e) {
    if (active_faults_.empty()) return;
    ++result_.fault_window_lbc_signals;
    const char* expected = nullptr;
    if (fs_pressure_ > 0 && fm_pressure_ == 0) {
      if (e.fs > e.r && e.fs > e.fm && e.fs > 0.0) expected = "upgrade";
    } else if (fm_pressure_ > 0 && fs_pressure_ == 0) {
      if (e.fm > e.r && e.fm > e.fs && e.fm > 0.0) expected = "degrade+tighten";
    }
    if (expected == nullptr) return;
    if (std::strcmp(e.reason, expected) == 0) {
      ++result_.fault_window_relief_signals;
    } else {
      Violation(6, e, std::string("LBC response \"") + e.reason +
                       "\" during a fault window pressuring the dominant "
                       "penalty; expected \"" + expected +
                       "\" (r=" + std::to_string(e.r) +
                       " fm=" + std::to_string(e.fm) +
                       " fs=" + std::to_string(e.fs) + ")");
    }
  }

  /// Which penalty axis `kind` pressures; updates the open-window tallies.
  void AdjustPressure(FaultKind kind, int delta) {
    switch (kind) {
      case FaultKind::kUpdateOutage:
      case FaultKind::kFreshnessShift:
        fs_pressure_ += delta;
        break;
      case FaultKind::kUpdateBurst:
      case FaultKind::kServiceSlowdown:
        fm_pressure_ += delta;
        break;
      case FaultKind::kLoadStep:
      case FaultKind::kRetryStorm:
        // Pressures R and Fm together — no single relieving action, so a
        // load-step / retry-storm window suspends the direction check via
        // neither tally.
        fs_pressure_ += delta;
        fm_pressure_ += delta;
        break;
    }
  }

  void OnFaultStart(const TraceEvent& e) {
    saw_fault_ = true;
    FaultKind kind;
    if (!FaultKindFromName(e.reason, &kind)) {
      Violation(6, e, std::string("unknown fault kind \"") + e.reason + "\"");
      return;
    }
    if (!active_faults_.emplace(e.txn, e.reason).second) {
      Violation(6, e, "duplicate start for fault " + std::to_string(e.txn));
      return;
    }
    const bool item_scoped = kind == FaultKind::kUpdateOutage ||
                             kind == FaultKind::kUpdateBurst;
    if (item_scoped && e.resolved <= 0) {
      Violation(6, e, "item-scoped fault with no affected items");
    }
    if (!item_scoped && e.resolved != 0) {
      Violation(6, e, "global fault carries an item span");
    }
    if (kind != FaultKind::kUpdateOutage && e.magnitude == 0.0) {
      Violation(6, e, "zero magnitude for kind \"" + std::string(e.reason) +
                       "\"");
    }
    AdjustPressure(kind, +1);
  }

  void OnFaultStop(const TraceEvent& e) {
    saw_fault_ = true;
    auto it = active_faults_.find(e.txn);
    if (it == active_faults_.end()) {
      Violation(6, e, "stop without start for fault " + std::to_string(e.txn));
      return;
    }
    if (it->second != e.reason) {
      Violation(6, e, "fault " + std::to_string(e.txn) + " started as \"" +
                       it->second + "\" but stopped as \"" + e.reason + "\"");
    }
    FaultKind kind;
    if (FaultKindFromName(it->second.c_str(), &kind)) {
      AdjustPressure(kind, -1);
    }
    active_faults_.erase(it);
  }

  /// Per-request retry-chain state for invariant 7.
  struct ChainState {
    int64_t last_attempt = 0;
    SimDuration last_delay = 0;
  };

  TraceCheckResult result_;
  SimTime last_time_ = 0;
  std::unordered_map<TxnId, TxnPhase> txns_;
  /// Txns with a recorded failure terminal (reject / deadline-miss / shed);
  /// retries and abandons must reference one of these.
  std::unordered_set<TxnId> failed_txns_;
  std::unordered_map<TxnId, ChainState> chains_;
  /// Open fault windows: fault id -> kind name (ordered so the unclosed-
  /// window epilogue reports deterministically).
  std::map<int64_t, std::string> active_faults_;
  int fs_pressure_ = 0;
  int fm_pressure_ = 0;

  // Invariant 8 state: per-item update-arrival grid and apply history
  // ((trace position, value time) pairs), the most recent apply per item
  // (for invalidate pairing), the queued hits, and whether any fault event
  // was seen (which disables the history leg).
  std::unordered_map<ItemId, std::vector<SimTime>> arrivals_;
  std::unordered_map<ItemId, std::vector<std::pair<int64_t, SimTime>>>
      applies_;
  std::unordered_map<ItemId, std::pair<SimTime, TxnId>> last_apply_;
  std::vector<HitCheck> hits_;
  bool saw_fault_ = false;
};

}  // namespace

TraceCheckResult CheckTrace(const std::vector<TraceEvent>& events) {
  return Checker().Run(events);
}

int TraceCheckExitCode(const TraceCheckResult& result) {
  return result.FirstViolatedInvariant();
}

std::string TraceCheckSummary(const TraceCheckResult& r) {
  std::string out = std::to_string(r.events) + " events (" +
                    std::to_string(r.arrivals) + " arrivals, " +
                    std::to_string(r.admits) + " admits, " +
                    std::to_string(r.rejects) + " rejects, " +
                    std::to_string(r.commits) + " commits, " +
                    std::to_string(r.deadline_misses) + " deadline misses, " +
                    std::to_string(r.update_applies) + " update applies, " +
                    std::to_string(r.update_drops) + " update drops, " +
                    std::to_string(r.lbc_signals) + " lbc signals, " +
                    std::to_string(r.fault_starts) + " fault windows): ";
  if (r.ok()) {
    out += "all invariants hold";
    return out;
  }
  out += std::to_string(r.violation_count) + " violation(s)";
  out += " [per invariant:";
  for (int i = 1; i <= 8; ++i) {
    if (r.invariant_violations[i] > 0) {
      out += " ";  // not " " + std::string&&: GCC 12 -O3 false -Wrestrict
      out += std::to_string(i) + "x" +
             std::to_string(r.invariant_violations[i]);
    }
  }
  out += "]";
  const size_t show = r.violations.size() < 5 ? r.violations.size() : 5;
  for (size_t i = 0; i < show; ++i) {
    out += "\n  - " + r.violations[i];
  }
  if (r.violation_count > static_cast<int64_t>(show)) {
    out += "\n  ... and " + std::to_string(r.violation_count - show) + " more";
  }
  return out;
}

}  // namespace unitdb
