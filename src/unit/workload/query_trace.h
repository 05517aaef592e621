#ifndef UNIT_WORKLOAD_QUERY_TRACE_H_
#define UNIT_WORKLOAD_QUERY_TRACE_H_

#include <cstdint>

#include "unit/common/status.h"
#include "unit/common/types.h"
#include "unit/workload/spec.h"

namespace unitdb {

/// Parameters of the synthetic query-trace generator.
///
/// The paper drives its evaluation with the HP `cello99a` disk trace
/// (110,035 reads over 3.8M seconds, disk partitioned into 1024 regions =
/// data items, deadlines drawn from [average RT, 10 x max RT], freshness
/// requirement fixed at 90%). The trace itself is proprietary, so we
/// synthesize a workload preserving every property the algorithms react to:
/// skewed item popularity (Fig. 3(a) shows a strongly skewed histogram),
/// bursty arrivals (flash crowds, Section 1), heavy-tailed service times,
/// and the paper's exact deadline/freshness rules. See DESIGN.md §4.
struct QueryTraceParams {
  int num_items = 1024;
  SimDuration duration = SecondsToSim(2000.0);

  /// Arrivals: 2-state Markov-modulated Poisson process.
  double base_rate_hz = 5.0;          ///< arrival rate in the normal state
  double burst_rate_multiplier = 25.0;  ///< flash-crowd rate = base * this
  double mean_normal_sojourn_s = 90.0;
  double mean_burst_sojourn_s = 2.5;

  /// Item popularity: Zipf(s) over num_items ranks; rank r maps to item id r
  /// (item 0 hottest), matching the monotone-looking histogram of Fig. 3(a).
  double zipf_s = 1.3;

  /// Temporal locality: with this probability a query reads from the current
  /// working set (recently touched items) instead of drawing a fresh
  /// Zipf-popular item. Disk traces like cello99a are strongly sessionized;
  /// without locality, no update policy could tell which cold items are safe
  /// to let go stale.
  double locality_p = 0.75;
  int working_set_size = 128;

  /// Number of items read per query: 1 + Geometric(extra_item_p) extras.
  double extra_item_p = 0.25;
  int max_items_per_query = 8;

  /// Service demand: lognormal with the given median and shape, clamped.
  double exec_median_ms = 20.0;
  double exec_sigma = 1.2;
  double exec_min_ms = 0.5;
  double exec_max_ms = 1000.0;

  /// Deadlines: Uniform[deadline_lo_factor * mean_exec,
  ///                    deadline_hi_factor * max_exec] (paper: [avg RT, 10 max RT]).
  double deadline_lo_factor = 1.0;
  double deadline_hi_factor = 10.0;

  double freshness_req = 0.9;  ///< paper fixes qf at 90% for every query

  /// Number of user preference classes, in [1, kMaxPreferenceClasses];
  /// queries are assigned uniformly at random. 1 = the paper's
  /// single-class assumption.
  int num_preference_classes = 1;

  uint64_t seed = 42;
};

/// Parameter validation shared by GenerateQueryTrace, MakeStreamingWorkload
/// (workload/query_source.h) and the oracle ReferenceGenerateQueryTrace
/// (model/reference_query_trace.h), so all three fail on exactly the same
/// inputs.
Status ValidateQueryTraceParams(const QueryTraceParams& params);

/// Generates the query side of a workload (updates attached separately by
/// GenerateUpdateTrace), named "cello-like": drains the same per-query
/// stream MakeStreamingWorkload hands out into `queries`. Fails on the
/// parameters ValidateQueryTraceParams rejects.
StatusOr<Workload> GenerateQueryTrace(const QueryTraceParams& params);

}  // namespace unitdb

#endif  // UNIT_WORKLOAD_QUERY_TRACE_H_
