#ifndef UNIT_COMMON_STATS_H_
#define UNIT_COMMON_STATS_H_

#include <cstddef>
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

/// Exponentially-weighted moving average, used by the engine to maintain
/// the per-class "average execution time" estimates that the paper assumes
/// the DBMS already tracks for query optimization.
class Ewma {
 public:
  /// alpha in (0, 1]: weight of the newest observation.
  explicit Ewma(double alpha = 0.2) : alpha_(alpha) {}

  void Add(double x) {
    if (!initialized_) {
      value_ = x;
      initialized_ = true;
    } else {
      value_ = alpha_ * x + (1.0 - alpha_) * value_;
    }
  }

  bool initialized() const { return initialized_; }
  /// Current estimate, or `fallback` before the first observation.
  double ValueOr(double fallback) const {
    return initialized_ ? value_ : fallback;
  }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

/// Collects samples and answers percentile queries. Keeps every sample;
/// intended for offline experiment reporting, not hot paths.
class Percentiles {
 public:
  void Add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  size_t count() const { return samples_.size(); }

  /// p in [0, 100]. Nearest-rank percentile; 0 samples -> 0.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Fixed-bucket histogram over [lo, hi) plus overflow/underflow buckets,
/// used for the Figure 3 distribution plots.
class Histogram {
 public:
  Histogram(double lo, double hi, int buckets);

  void Add(double x);
  int64_t BucketCount(int b) const { return counts_[b]; }
  int64_t underflow() const { return underflow_; }
  int64_t overflow() const { return overflow_; }
  int buckets() const { return static_cast<int>(counts_.size()); }
  double BucketLow(int b) const;
  int64_t total() const { return total_; }

 private:
  double lo_, hi_, width_;
  std::vector<int64_t> counts_;
  int64_t underflow_ = 0;
  int64_t overflow_ = 0;
  int64_t total_ = 0;
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
