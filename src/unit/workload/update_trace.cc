#include "unit/workload/update_trace.h"

#include <cmath>

#include "unit/common/rng.h"
#include "unit/workload/correlation.h"

namespace unitdb {

const char* UpdateVolumeName(UpdateVolume v) {
  switch (v) {
    case UpdateVolume::kLow:
      return "low";
    case UpdateVolume::kMedium:
      return "med";
    case UpdateVolume::kHigh:
      return "high";
  }
  return "?";
}

const char* UpdateDistributionName(UpdateDistribution d) {
  switch (d) {
    case UpdateDistribution::kUniform:
      return "unif";
    case UpdateDistribution::kPositive:
      return "pos";
    case UpdateDistribution::kNegative:
      return "neg";
  }
  return "?";
}

bool UpdateVolumeFromName(const std::string& name, UpdateVolume* out) {
  for (UpdateVolume v :
       {UpdateVolume::kLow, UpdateVolume::kMedium, UpdateVolume::kHigh}) {
    if (name == UpdateVolumeName(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

bool UpdateDistributionFromName(const std::string& name,
                                UpdateDistribution* out) {
  for (UpdateDistribution d :
       {UpdateDistribution::kUniform, UpdateDistribution::kPositive,
        UpdateDistribution::kNegative}) {
    if (name == UpdateDistributionName(d)) {
      *out = d;
      return true;
    }
  }
  return false;
}

double VolumeUtilization(UpdateVolume v) {
  switch (v) {
    case UpdateVolume::kLow:
      return 0.15;
    case UpdateVolume::kMedium:
      return 0.75;
    case UpdateVolume::kHigh:
      return 1.50;
  }
  return 0.0;
}

std::string UpdateTraceName(const UpdateTraceParams& params) {
  return std::string(UpdateVolumeName(params.volume)) + "-" +
         UpdateDistributionName(params.distribution);
}

Status GenerateUpdateTrace(const UpdateTraceParams& p, Workload& w) {
  if (w.num_items <= 0 || w.duration <= 0) {
    return Status::FailedPrecondition("workload has no items/duration");
  }
  if (p.exec_lo_ms <= 0.0 || p.exec_hi_ms < p.exec_lo_ms) {
    return Status::InvalidArgument("bad update exec range");
  }
  const double utilization = p.utilization_override > 0.0
                                 ? p.utilization_override
                                 : VolumeUtilization(p.volume);
  if (utilization <= 0.0) return Status::InvalidArgument("utilization <= 0");

  Rng rng(p.seed);
  Rng exec_rng = rng.Fork();
  Rng weight_rng = rng.Fork();
  Rng phase_rng = rng.Fork();

  const int n = w.num_items;

  // Spatial weights over items.
  std::vector<double> weights;
  if (p.distribution == UpdateDistribution::kUniform) {
    weights.assign(n, 1.0 / n);
  } else {
    if (w.QueryCount() == 0) {
      return Status::FailedPrecondition(
          "correlated update trace requires the query trace first");
    }
    const double rho = p.distribution == UpdateDistribution::kPositive
                           ? p.correlation
                           : -p.correlation;
    auto result = CorrelatedWeights(w.QueryAccessCounts(), rho, weight_rng);
    if (!result.ok()) return result.status();
    weights = std::move(result).value();
  }

  // Per-item execution times, uniform in [lo, hi] ms.
  std::vector<SimDuration> execs(n);
  for (int i = 0; i < n; ++i) {
    execs[i] = std::max<SimDuration>(
        1, MillisToSim(exec_rng.Uniform(p.exec_lo_ms, p.exec_hi_ms)));
  }

  // Total update count T: sum_j (T * w_j) * ue_j = utilization * duration.
  double weighted_exec = 0.0;
  for (int i = 0; i < n; ++i) {
    weighted_exec += weights[i] * static_cast<double>(execs[i]);
  }
  if (weighted_exec <= 0.0) return Status::Internal("degenerate weights");
  const double total_updates =
      utilization * static_cast<double>(w.duration) / weighted_exec;

  w.updates.clear();
  const double duration_d = static_cast<double>(w.duration);
  for (int i = 0; i < n; ++i) {
    const double count = total_updates * weights[i];
    // Items expecting (essentially) zero updates get no source at all.
    if (count < 1e-4) continue;
    const double period_d = duration_d / count;
    ItemUpdateSpec spec;
    spec.item = i;
    spec.update_exec = execs[i];
    spec.ideal_period = std::max<SimDuration>(
        1, static_cast<SimDuration>(std::llround(period_d)));
    // Uniform phase in [0, period): for count < 1 this makes the expected
    // number of in-run generations equal `count`.
    spec.phase = static_cast<SimTime>(
        phase_rng.Uniform(0.0, static_cast<double>(spec.ideal_period)));
    if (spec.phase >= spec.ideal_period) spec.phase = spec.ideal_period - 1;
    w.updates.push_back(spec);
  }
  w.update_trace_name = UpdateTraceName(p);
  return Status::Ok();
}

}  // namespace unitdb
