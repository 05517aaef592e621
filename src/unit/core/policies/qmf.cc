#include "unit/core/policies/qmf.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "unit/db/database.h"
#include "unit/sched/engine_context.h"

namespace unitdb {

namespace {

/// CPU utilization set-point separating "underutilized" from "overloaded".
constexpr double kTargetUtilization = 0.90;
/// Perceived-freshness target (fraction of committed queries meeting their
/// freshness requirement).
constexpr double kTargetFreshness = 0.90;
/// Miss-ratio target among admitted queries.
constexpr double kTargetMissRatio = 0.05;
/// Admission budget: fraction of a control window's CPU the estimated
/// demand of newly admitted queries may claim.
constexpr double kInitialBudget = 1.0;
constexpr double kMinBudget = 0.02;
constexpr double kMaxBudget = 2.0;
/// Relative budget adjustment per control action.
constexpr double kBudgetStep = 0.15;
/// Items degraded per QoD-degradation action (lowest access/update ratio
/// first) and the per-action period stretch factor.
constexpr size_t kDegradeBatch = 32;
constexpr double kDegradeFactor = 2.0;
constexpr double kMaxStretch = 1024.0;
/// Forgetting factor on the per-item access/update counters.
constexpr double kCounterDecay = 0.9;

}  // namespace

QmfPolicy::QmfPolicy() : budget_(kInitialBudget) {}

void QmfPolicy::Attach(EngineContext& engine) {
  const int n = engine.db().num_items();
  access_count_.assign(n, 0.0);
  update_count_.assign(n, 0.0);
  window_budget_s_ =
      budget_ * SimToSeconds(engine.params().control_period);
  window_admitted_work_s_ = 0.0;
  last_tick_ = 0;
  last_busy_s_ = 0.0;
}

bool QmfPolicy::AdmitQuery(EngineContext& engine, const Transaction& query) {
  (void)engine;
  const double demand_s = SimToSeconds(query.estimate());
  if (window_admitted_work_s_ + demand_s > window_budget_s_) {
    ++budget_rejections_;
    return false;
  }
  window_admitted_work_s_ += demand_s;
  return true;
}

void QmfPolicy::OnQueryResolved(EngineContext& engine, const Transaction& query,
                                Outcome outcome) {
  (void)engine;
  if (outcome == Outcome::kRejected) return;
  ++window_admitted_resolved_;
  if (outcome == Outcome::kDeadlineMiss) {
    ++window_admitted_missed_;
    return;
  }
  // Committed (success or stale): count perceived freshness and accesses.
  ++window_committed_;
  if (outcome == Outcome::kSuccess) ++window_fresh_;
  for (ItemId item : query.items()) access_count_[item] += 1.0;
}

void QmfPolicy::OnUpdateSourceArrival(EngineContext& engine, ItemId item) {
  (void)engine;
  update_count_[item] += 1.0;
}

void QmfPolicy::OnControlTick(EngineContext& engine) {
  const SimTime now = engine.now();
  const double window_s = SimToSeconds(now - last_tick_);
  last_tick_ = now;

  const double busy = engine.BusySeconds();
  const double utilization =
      window_s > 0.0 ? (busy - last_busy_s_) / window_s : 0.0;
  last_busy_s_ = busy;

  const double freshness =
      window_committed_ > 0 ? static_cast<double>(window_fresh_) /
                                  static_cast<double>(window_committed_)
                            : 1.0;
  const double miss_ratio =
      window_admitted_resolved_ > 0
          ? static_cast<double>(window_admitted_missed_) /
                static_cast<double>(window_admitted_resolved_)
          : 0.0;

  const bool overloaded =
      utilization >= kTargetUtilization || miss_ratio > kTargetMissRatio;
  if (!overloaded) {
    if (freshness < kTargetFreshness) {
      UpgradeAll(engine);
    } else {
      budget_ = std::min(kMaxBudget, budget_ * (1.0 + kBudgetStep));
    }
  } else {
    if (freshness >= kTargetFreshness) {
      DegradeLowestRatio(engine);
    } else {
      budget_ = std::max(kMinBudget, budget_ * (1.0 - kBudgetStep));
    }
  }

  // Roll the window.
  window_budget_s_ =
      budget_ * SimToSeconds(engine.params().control_period);
  window_admitted_work_s_ = 0.0;
  window_admitted_resolved_ = 0;
  window_admitted_missed_ = 0;
  window_committed_ = 0;
  window_fresh_ = 0;
  for (auto& c : access_count_) c *= kCounterDecay;
  for (auto& c : update_count_) c *= kCounterDecay;
}

void QmfPolicy::DegradeLowestRatio(EngineContext& engine) {
  Database& db = engine.db();
  // Rank update-bearing items by access/update ratio, lowest first: items
  // that are updated a lot but read rarely lose update bandwidth first.
  std::vector<int> order;
  order.reserve(db.num_items());
  for (ItemId i = 0; i < db.num_items(); ++i) {
    const DataItemState& item = db.item(i);
    if (item.ideal_period >= kNoUpdates) continue;
    if (static_cast<double>(item.current_period) >=
        static_cast<double>(item.ideal_period) * kMaxStretch) {
      continue;
    }
    order.push_back(i);
  }
  auto ratio = [this](int i) {
    return access_count_[i] / (update_count_[i] + 1.0);
  };
  const size_t k = std::min(order.size(), kDegradeBatch);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](int a, int b) {
                      const double ra = ratio(a), rb = ratio(b);
                      if (ra != rb) return ra < rb;
                      return a < b;
                    });
  for (size_t j = 0; j < k; ++j) {
    const ItemId i = order[j];
    const DataItemState& item = db.item(i);
    const double cap = static_cast<double>(item.ideal_period) * kMaxStretch;
    const double stretched = std::min(
        cap, static_cast<double>(item.current_period) * kDegradeFactor);
    db.SetCurrentPeriod(i, static_cast<SimDuration>(stretched));
  }
}

void QmfPolicy::UpgradeAll(EngineContext& engine) {
  Database& db = engine.db();
  for (ItemId i = 0; i < db.num_items(); ++i) {
    const DataItemState& item = db.item(i);
    if (item.ideal_period >= kNoUpdates ||
        item.current_period <= item.ideal_period) {
      continue;
    }
    const SimDuration shrunk = std::max(
        item.ideal_period,
        static_cast<SimDuration>(static_cast<double>(item.current_period) /
                                 kDegradeFactor));
    db.SetCurrentPeriod(i, shrunk);
  }
}

}  // namespace unitdb
