#ifndef UNIT_WORKLOAD_UPDATE_TRACE_H_
#define UNIT_WORKLOAD_UPDATE_TRACE_H_

#include <cstdint>
#include <string>

#include "unit/common/status.h"
#include "unit/workload/spec.h"

namespace unitdb {

/// Update volume classes of the paper's Table 1, expressed — as the paper
/// does — as the CPU utilization of executing every update: 15%, 75%, 150%.
enum class UpdateVolume { kLow, kMedium, kHigh };

/// Spatial distribution of updates over data items (Table 1): uniform, or
/// rank-correlated with the query distribution at coefficient ~0.8
/// (positive or negative).
enum class UpdateDistribution { kUniform, kPositive, kNegative };

const char* UpdateVolumeName(UpdateVolume v);        ///< "low"/"med"/"high"
const char* UpdateDistributionName(UpdateDistribution d);  ///< "unif"/"pos"/"neg"

/// Inverses of UpdateVolumeName and UpdateDistributionName; return false on
/// an unknown name and leave `*out` unchanged.
bool UpdateVolumeFromName(const std::string& name, UpdateVolume* out);
bool UpdateDistributionFromName(const std::string& name,
                                UpdateDistribution* out);

/// Parameters of the update-trace generator.
struct UpdateTraceParams {
  UpdateVolume volume = UpdateVolume::kMedium;
  UpdateDistribution distribution = UpdateDistribution::kUniform;

  /// Overrides the volume's canonical utilization when positive.
  double utilization_override = -1.0;

  /// Correlation magnitude against the query distribution (paper: 0.8).
  double correlation = 0.8;

  /// Per-item update execution times, uniform in [lo, hi] ms (the paper
  /// draws them "randomly in the range of the response time of writes";
  /// an update transaction re-materializes a derived web view, so it is
  /// chunkier than a single point read).
  double exec_lo_ms = 60.0;
  double exec_hi_ms = 600.0;

  uint64_t seed = 7;
};

/// Canonical utilization of a volume class (0.15 / 0.75 / 1.50).
double VolumeUtilization(UpdateVolume v);

/// Canonical trace name, e.g. "med-unif" (Table 1 naming).
std::string UpdateTraceName(const UpdateTraceParams& params);

/// Attaches update sources to `workload` (which must already carry the query
/// trace — correlated distributions derive from its access counts). Replaces
/// any previous update specs and sets update_trace_name.
///
/// Each item's ideal period is duration / count_j where the per-item counts
/// follow the requested spatial distribution and total
/// `sum(count_j * exec_j) = utilization * duration`. Items whose expected
/// count falls below one get a period longer than the run and a random phase
/// such that the expected number of generations still matches.
Status GenerateUpdateTrace(const UpdateTraceParams& params,
                           Workload& workload);

}  // namespace unitdb

#endif  // UNIT_WORKLOAD_UPDATE_TRACE_H_
