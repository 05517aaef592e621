#ifndef UNIT_SIM_SERVER_H_
#define UNIT_SIM_SERVER_H_

#include <memory>
#include <string>
#include <vector>

#include "unit/common/status.h"
#include "unit/core/policies/unit_policy.h"
#include "unit/core/policy.h"
#include "unit/core/usm.h"
#include "unit/sched/engine.h"
#include "unit/sched/metrics.h"
#include "unit/workload/spec.h"

namespace unitdb {

/// Per-policy construction knobs; only the UNIT policies read them.
struct PolicyOptions {
  UnitParams unit;
};

/// Builds a policy by name: "unit", "imu", "odu", "qmf", and the ablation
/// variants "unit-noac" (no admission control), "unit-noum" (no update
/// modulation), "unit-bare" (neither). Unknown names fail with NotFound; a
/// weight (G_s or a penalty) that is negative or not finite fails with
/// InvalidArgument naming the field.
StatusOr<std::unique_ptr<Policy>> MakePolicy(const std::string& name,
                                             const UsmWeights& weights,
                                             const PolicyOptions& options = {});

/// Names accepted by MakePolicy (the paper's four, first).
std::vector<std::string> KnownPolicies();

/// A web-database server instance: one workload, one policy, one engine.
/// Thin convenience wrapper so applications don't wire the pieces by hand.
class Server {
 public:
  struct Config {
    std::string policy = "unit";
    UsmWeights weights;
    EngineParams engine;
    PolicyOptions options;
  };

  /// Fails on an unknown policy name and on update specs the database
  /// refuses (Engine::workload_status()). `workload` must outlive the
  /// server.
  static StatusOr<std::unique_ptr<Server>> Create(const Workload& workload,
                                                  const Config& config);

  /// Runs the workload to completion; call at most once.
  RunMetrics Run();

  Policy& policy() { return *policy_; }
  const Config& config() const { return config_; }

 private:
  Server(const Workload& workload, Config config,
         std::unique_ptr<Policy> policy);

  const Workload& workload_;
  Config config_;
  std::unique_ptr<Policy> policy_;
  Engine engine_;
};

}  // namespace unitdb

#endif  // UNIT_SIM_SERVER_H_
