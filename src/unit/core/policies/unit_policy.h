#ifndef UNIT_CORE_POLICIES_UNIT_POLICY_H_
#define UNIT_CORE_POLICIES_UNIT_POLICY_H_

#include <limits>
#include <memory>
#include <string>

#include "unit/common/rng.h"
#include "unit/core/admission.h"
#include "unit/core/lbc.h"
#include "unit/core/policy.h"
#include "unit/core/update_modulation.h"
#include "unit/core/usm.h"

namespace unitdb {

/// Tunables of the full UNIT policy.
struct UnitParams {
  AdmissionParams admission;
  ModulationParams modulation;
  LbcParams lbc;
  uint64_t seed = 99;
  /// Component ablation switches (`bench_grid figure=a3`):
  bool enable_admission_control = true;
  bool enable_update_modulation = true;
};

/// The paper's UNIT framework (Section 3): Query Admission Control + Update
/// Frequency Modulation, coordinated by the Load Balancing Controller's
/// Adaptive Allocation Algorithm to maximize the User Satisfaction Metric.
class UnitPolicy : public Policy {
 public:
  explicit UnitPolicy(const UsmWeights& weights, UnitParams params = {});

  /// Multi-preference construction: one UsmWeights per user class (query
  /// `preference_class` indexes the table; out-of-range classes use the
  /// last entry). Admission and the Load Balancing Controller value each
  /// class's failures by its own penalties — the extension Section 3.1 of
  /// the paper sketches.
  UnitPolicy(std::vector<UsmWeights> class_weights, UnitParams params = {});

  std::string name() const override { return "unit"; }
  void Attach(EngineContext& engine) override;
  bool AdmitQuery(EngineContext& engine, const Transaction& query) override;
  void OnQueryResolved(EngineContext& engine, const Transaction& query,
                       Outcome outcome) override;
  void OnUpdateSourceArrival(EngineContext& engine, ItemId item) override;
  void OnControlTick(EngineContext& engine) override;
  double AdmissionKnob() const override {
    return params_.enable_admission_control
               ? admission_.c_flex()
               : std::numeric_limits<double>::quiet_NaN();
  }

  // Introspection (tests / benches).
  const AdmissionController& admission() const { return admission_; }
  const UpdateModulator& modulator() const { return modulator_; }
  const LoadBalancingController& lbc() const { return lbc_; }
  int64_t signals(ControlSignal s) const {
    return signal_counts_[static_cast<int>(s)];
  }

 private:
  std::vector<UsmWeights> class_weights_;
  UnitParams params_;
  AdmissionController admission_;
  UpdateModulator modulator_;  ///< sized at Attach; placeholder before
  LoadBalancingController lbc_;
  Rng rng_;
  double last_busy_s_ = 0.0;
  SimTime last_tick_ = 0;
  int64_t signal_counts_[5] = {0, 0, 0, 0, 0};
};

}  // namespace unitdb

#endif  // UNIT_CORE_POLICIES_UNIT_POLICY_H_
