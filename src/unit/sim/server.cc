#include "unit/sim/server.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "unit/core/policies/hybrid.h"
#include "unit/core/policies/imu.h"
#include "unit/core/policies/odu.h"
#include "unit/core/policies/qmf.h"

namespace unitdb {

StatusOr<std::unique_ptr<Policy>> MakePolicy(const std::string& name,
                                             const UsmWeights& weights,
                                             const PolicyOptions& options) {
  // A NaN or infinite weight poisons every USM the run computes, and a
  // negative penalty turns the failure it prices into a reward.
  for (const auto& [field, value] :
       {std::pair{"gain", weights.gain}, std::pair{"c_r", weights.c_r},
        std::pair{"c_fm", weights.c_fm}, std::pair{"c_fs", weights.c_fs}}) {
    if (!std::isfinite(value) || value < 0.0) {
      std::ostringstream os;
      os << "USM weight " << field << "=" << value
         << " must be finite and non-negative";
      return Status::InvalidArgument(os.str());
    }
  }
  if (name == "unit") {
    return std::unique_ptr<Policy>(new UnitPolicy(weights, options.unit));
  }
  if (name == "imu") {
    return std::unique_ptr<Policy>(new ImuPolicy());
  }
  if (name == "odu" || name == "odu-nodedupe") {
    return std::unique_ptr<Policy>(new OduPolicy(name == "odu"));
  }
  if (name == "qmf") {
    return std::unique_ptr<Policy>(new QmfPolicy());
  }
  if (name == "unit-hybrid") {
    return std::unique_ptr<Policy>(new HybridPolicy(weights, options.unit));
  }
  if (name == "unit-noac" || name == "unit-noum" || name == "unit-bare") {
    UnitParams params = options.unit;
    params.enable_admission_control = (name == "unit-noum");
    params.enable_update_modulation = (name == "unit-noac");
    return std::unique_ptr<Policy>(new UnitPolicy(weights, params));
  }
  return Status::NotFound("unknown policy '" + name + "'");
}

std::vector<std::string> KnownPolicies() {
  return {"unit", "imu", "odu", "qmf", "unit-hybrid",
          "unit-noac", "unit-noum", "unit-bare", "odu-nodedupe"};
}

StatusOr<std::unique_ptr<Server>> Server::Create(const Workload& workload,
                                                 const Config& config) {
  auto policy = MakePolicy(config.policy, config.weights, config.options);
  if (!policy.ok()) return policy.status();
  std::unique_ptr<Server> server(
      new Server(workload, config, std::move(*policy)));
  if (!server->engine_.workload_status().ok()) {
    return server->engine_.workload_status();
  }
  return server;
}

Server::Server(const Workload& workload, Config config,
               std::unique_ptr<Policy> policy)
    : workload_(workload),
      config_(std::move(config)),
      policy_(std::move(policy)),
      engine_(workload_, policy_.get(), config_.engine) {}

RunMetrics Server::Run() { return engine_.Run(); }

}  // namespace unitdb
