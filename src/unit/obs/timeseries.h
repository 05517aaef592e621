#ifndef UNIT_OBS_TIMESERIES_H_
#define UNIT_OBS_TIMESERIES_H_

#include <string>
#include <vector>

#include "unit/common/status.h"
#include "unit/core/usm.h"
#include "unit/sched/metrics.h"
#include "unit/txn/outcome.h"

namespace unitdb {

/// How MergeSeries (shard/sharded.h) folds one WindowSample field over the
/// shards' samples of one window.
enum class WindowMerge {
  kKey,       ///< the window-end instant the samples are grouped by
  kSum,       ///< summed over shards (utilization: aggregate of N CPUs)
  kMax,       ///< largest shard value
  kKnobMean,  ///< mean over the shards that have one (NaN if none has)
  kDerived,   ///< re-derived from the merged outcome counts by Record()
};

/// The WindowSample field table, X(type, name, WindowMerge, column, source),
/// in declaration and CSV order. `column` is the CSV column, or for a
/// struct field the prefix of its members' columns. `source` is the
/// cumulative RunMetrics counter whose growth over the window the field
/// records (TakeWindowDeltas), or nullptr for a value the engine samples
/// itself.
#define UNIT_WINDOW_SAMPLE_FIELDS(X)                                          \
  /* Window end, simulated seconds. */                                       \
  X(double, t_s, kKey, "t_s", nullptr)                                       \
  /* Outcome counts over the window and their Eq. 5 terms (S, R, Fm, Fs). */ \
  X(OutcomeCounts, window, kSum, "", &RunMetrics::counts)                    \
  X(UsmBreakdown, usm, kDerived, "usm_", nullptr)                            \
  /* CPU utilization over the window; ready-queue depths at the sample. */   \
  X(double, utilization, kSum, "utilization", nullptr)                       \
  X(int, ready_queries, kSum, "ready_queries", nullptr)                      \
  X(int, ready_updates, kSum, "ready_updates", nullptr)                      \
  /* Udrop percentiles over all data items. */                               \
  X(double, udrop_p50, kMax, "udrop_p50", nullptr)                           \
  X(double, udrop_p90, kMax, "udrop_p90", nullptr)                           \
  X(int64_t, udrop_max, kMax, "udrop_max", nullptr)                          \
  /* C_flex (NaN: the policy has no admission knob). */                      \
  X(double, admission_knob, kKnobMean, "c_flex", nullptr)                    \
  /* Items whose current update period exceeds the ideal one. */             \
  X(int, degraded_items, kSum, "degraded_items", nullptr)                    \
  /* Session resubmissions, abandoned requests and shed queries, then        \
     cache hits and invalidations, over the window (0 when off). */          \
  X(int64_t, retries, kSum, "retries", &RunMetrics::session_retries)         \
  X(int64_t, abandons, kSum, "abandons", &RunMetrics::session_abandons)      \
  X(int64_t, shed, kSum, "shed", &RunMetrics::queries_shed)                  \
  X(int64_t, cache_hits, kSum, "cache_hits", &RunMetrics::cache_hits)        \
  X(int64_t, cache_invalidations, kSum, "cache_inval",                       \
    &RunMetrics::cache_invalidations)

/// One window of engine telemetry, sampled at every control tick (the LBC
/// window) plus once at end of run for the trailing partial window. The
/// engine fills the raw fields; the recorder derives the USM decomposition
/// from `window` under its weights.
struct WindowSample {
#define UNIT_DECLARE_FIELD(type, name, merge, column, source) type name{};
  UNIT_WINDOW_SAMPLE_FIELDS(UNIT_DECLARE_FIELD)
#undef UNIT_DECLARE_FIELD
};

/// One WindowSample table row as ForEachWindowSampleField hands it out.
template <auto Member, WindowMerge Merge, auto Source>
struct WindowSampleField {
  static constexpr auto member = Member;
  static constexpr WindowMerge merge = Merge;
  static constexpr auto source = Source;
  const char* name;
  const char* column;
};

/// Calls `f(WindowSampleField<...>{name, column})` for every field, in
/// declaration order.
template <typename F>
constexpr void ForEachWindowSampleField(F&& f) {
#define UNIT_VISIT_FIELD(type, name, merge, column, source)                \
  f(WindowSampleField<&WindowSample::name, WindowMerge::merge, source>{   \
      #name, column});
  UNIT_WINDOW_SAMPLE_FIELDS(UNIT_VISIT_FIELD)
#undef UNIT_VISIT_FIELD
}

/// Sets every counter field of `sample` to the growth of its `source` in
/// `run` since `*last`, then moves `*last` up to `run`. `*last` holds the
/// cumulative counters at the previous sample (all 0 before the first).
void TakeWindowDeltas(const RunMetrics& run, WindowSample* last,
                      WindowSample* sample);

/// Collects WindowSamples during a run (EngineParams::series) and exports
/// them as CSV. Column set and order are stable — plotting scripts and the
/// DESIGN.md §8 schema table key off ColumnNames().
class TimeSeriesRecorder {
 public:
  explicit TimeSeriesRecorder(const UsmWeights& weights = {});

  /// Called by the engine once per window; fills `usm` from `window`.
  void Record(WindowSample sample);

  const std::vector<WindowSample>& samples() const { return samples_; }
  const UsmWeights& weights() const { return weights_; }

  /// Stable CSV column names, in emission order.
  static const std::vector<std::string>& ColumnNames();

  std::string ToCsv() const;
  Status WriteCsv(const std::string& path) const;

 private:
  UsmWeights weights_;
  std::vector<WindowSample> samples_;
};

}  // namespace unitdb

#endif  // UNIT_OBS_TIMESERIES_H_
