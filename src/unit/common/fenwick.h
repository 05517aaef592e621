#ifndef UNIT_COMMON_FENWICK_H_
#define UNIT_COMMON_FENWICK_H_

#include <cassert>
#include <cstddef>
#include <vector>

namespace unitdb {

/// Fenwick (binary indexed) tree over non-negative double weights.
///
/// Supports point assignment, prefix sums, and weighted sampling by prefix
/// search, all in O(log n). This is the data structure behind the
/// lottery-scheduling victim picker (Waldspurger '95 describes an O(log n)
/// tree-based lottery; a Fenwick tree is the compact modern equivalent).
class FenwickTree {
 public:
  FenwickTree() = default;
  explicit FenwickTree(size_t n) { Reset(n); }

  /// Resizes to n slots, all weights zero.
  void Reset(size_t n) {
    n_ = n;
    tree_.assign(n + 1, 0.0);
    weights_.assign(n, 0.0);
    total_ = 0.0;
  }

  size_t size() const { return n_; }

  /// Total weight across all slots.
  double total() const { return total_; }

  /// Current weight of slot i.
  double Get(size_t i) const {
    assert(i < n_);
    return weights_[i];
  }

  /// Sets slot i to weight w (w must be >= 0).
  void Set(size_t i, double w) {
    assert(i < n_);
    assert(w >= 0.0);
    const double delta = w - weights_[i];
    weights_[i] = w;
    total_ += delta;
    for (size_t j = i + 1; j <= n_; j += j & (~j + 1)) {
      tree_[j] += delta;
    }
    if (total_ < 0.0) total_ = 0.0;  // guard accumulated rounding error
  }

  /// Adds delta to slot i (result must stay >= 0 up to rounding).
  void Add(size_t i, double delta) { Set(i, weights_[i] + delta); }

  /// Sum of weights in slots [0, i).
  double PrefixSum(size_t i) const {
    assert(i <= n_);
    double s = 0.0;
    for (size_t j = i; j > 0; j -= j & (~j + 1)) {
      s += tree_[j];
    }
    return s;
  }

  /// Returns the smallest index i such that PrefixSum(i+1) > target, i.e.,
  /// the slot a dart thrown at `target` in [0, total()) lands in. If all
  /// weights are zero returns size()-1 (caller should check total() first).
  size_t FindPrefix(double target) const {
    assert(n_ > 0);
    size_t pos = 0;
    size_t mask = HighestPow2(n_);
    double acc = 0.0;
    while (mask != 0) {
      const size_t next = pos + mask;
      if (next <= n_ && acc + tree_[next] <= target) {
        pos = next;
        acc += tree_[next];
      }
      mask >>= 1;
    }
    // pos is the count of slots whose cumulative weight is <= target.
    return pos < n_ ? pos : n_ - 1;
  }

 private:
  static size_t HighestPow2(size_t n) {
    size_t p = 1;
    while ((p << 1) <= n) p <<= 1;
    return p;
  }

  size_t n_ = 0;
  std::vector<double> tree_;     // 1-based internal nodes
  std::vector<double> weights_;  // exact per-slot weights for Get()/Set()
  double total_ = 0.0;
};

}  // namespace unitdb

#endif  // UNIT_COMMON_FENWICK_H_
