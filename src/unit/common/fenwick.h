#ifndef UNIT_COMMON_FENWICK_H_
#define UNIT_COMMON_FENWICK_H_

#include <algorithm>
#include <bit>
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
    const double targets[1] = {target};
    size_t slots[1];
    FindPrefixes(targets, slots);
    return slots[0];
  }

  /// FindPrefix for K darts in one descent: slots[d] = FindPrefix(targets[d])
  /// for every d. Each dart makes the same additions and comparisons on its
  /// own path, with selects in place of branches, so the K independent paths
  /// overlap instead of stalling on branches that are coin flips.
  template <size_t K>
  void FindPrefixes(const double (&targets)[K], size_t (&slots)[K]) const {
    assert(n_ > 0);
    size_t pos[K] = {};
    double acc[K] = {};
    for (size_t mask = std::bit_floor(n_); mask != 0; mask >>= 1) {
      for (size_t d = 0; d < K; ++d) {
        const size_t next = pos[d] + mask;
        // A node past the end is read (clamped) but never taken.
        const double sum = acc[d] + tree_[std::min(next, n_)];
        // GCC turns this `&&` into selects; written with `&` it branches,
        // and one dart's descent measured 3x slower.
        const bool take = next <= n_ && sum <= targets[d];
        pos[d] = take ? next : pos[d];
        acc[d] = take ? sum : acc[d];
      }
    }
    // pos is the count of slots whose cumulative weight is <= target.
    for (size_t d = 0; d < K; ++d) slots[d] = pos[d] < n_ ? pos[d] : n_ - 1;
  }

 private:
  size_t n_ = 0;
  std::vector<double> tree_;     // 1-based internal nodes
  std::vector<double> weights_;  // exact per-slot weights for Get()/Set()
  double total_ = 0.0;
};

}  // namespace unitdb

#endif  // UNIT_COMMON_FENWICK_H_
