#ifndef UNIT_COMMON_STATS_H_
#define UNIT_COMMON_STATS_H_

#include <cstdint>
#include <vector>

namespace unitdb {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class RunningStat {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Merges another accumulator into this one.
  void Merge(const RunningStat& other);

  /// Removes all observations.
  void Clear();

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Population variance; 0 with fewer than two observations.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

  bool operator==(const RunningStat&) const = default;

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Pearson correlation coefficient of two equally-sized vectors; 0 if either
/// vector is constant or sizes mismatch. Used to verify that generated
/// update traces hit the paper's +/-0.8 correlation with the query trace.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/// Spearman rank correlation of two equally-sized vectors (ties get their
/// average rank).
double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y);

}  // namespace unitdb

#endif  // UNIT_COMMON_STATS_H_
