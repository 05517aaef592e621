#ifndef UNIT_CORE_POLICIES_QMF_H_
#define UNIT_CORE_POLICIES_QMF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "unit/core/policy.h"

namespace unitdb {

/// Re-implementation of QMF (Kang, Son & Stankovic, TKDE'04) as described in
/// the UNIT paper (Sections 4.1 and 4.5): a feedback loop on deadline miss
/// ratio and data freshness.
///
///  * CPU underutilized:  freshness below target -> update more often
///    (restore degraded periods); otherwise -> admit more transactions.
///  * CPU overloaded:     freshness above target -> update less often
///    (degrade the QoD of items with the lowest access/update ratio);
///    otherwise -> drop incoming transactions until the system recovers.
///
/// Admission is a per-window CPU budget on the estimated demand of admitted
/// queries; under bursts the budget exhausts and every further query is
/// rejected — the conservative behaviour the UNIT paper observes ("QMF's
/// rejection ratio [is] very high", Section 4.5). The loop's set-points and
/// steps are fixed constants (qmf.cc); the budget stays within [0.02, 2.0]
/// of a control window's CPU.
class QmfPolicy : public Policy {
 public:
  QmfPolicy();

  std::string name() const override { return "qmf"; }
  void Attach(EngineContext& engine) override;
  bool AdmitQuery(EngineContext& engine, const Transaction& query) override;
  void OnQueryResolved(EngineContext& engine, const Transaction& query,
                       Outcome outcome) override;
  void OnUpdateSourceArrival(EngineContext& engine, ItemId item) override;
  void OnControlTick(EngineContext& engine) override;

  double budget() const { return budget_; }
  int64_t budget_rejections() const { return budget_rejections_; }

 private:
  void DegradeLowestRatio(EngineContext& engine);
  void UpgradeAll(EngineContext& engine);

  double budget_;
  double window_admitted_work_s_ = 0.0;  ///< estimated demand admitted this window
  double window_budget_s_ = 0.0;         ///< CPU seconds the budget allows per window

  // Windowed monitors.
  int64_t window_admitted_resolved_ = 0;
  int64_t window_admitted_missed_ = 0;
  int64_t window_committed_ = 0;
  int64_t window_fresh_ = 0;
  double last_busy_s_ = 0.0;
  SimTime last_tick_ = 0;

  // Per-item decayed access/update counters for QoD degradation.
  std::vector<double> access_count_;
  std::vector<double> update_count_;

  int64_t budget_rejections_ = 0;
};

}  // namespace unitdb

#endif  // UNIT_CORE_POLICIES_QMF_H_
