#ifndef UNIT_CORE_LOTTERY_H_
#define UNIT_CORE_LOTTERY_H_

#include <vector>

#include "unit/common/fenwick.h"
#include "unit/common/rng.h"

namespace unitdb {

/// Lottery-scheduling sampler over data items (Waldspurger '95): each
/// eligible item holds a real-valued *ticket*; eligibility is fixed when the
/// sampler is built; sampling picks item j with
/// probability proportional to (ticket_j - min eligible ticket), the paper's
/// non-negativity shift (Section 3.4.1). When every shifted weight is zero
/// (e.g., all tickets equal), sampling falls back to uniform over the
/// eligible items — the natural lottery behaviour for an all-equal pool.
///
/// Ticket updates cost O(log n) via a Fenwick tree plus a flat min-tree that
/// tracks the exact minimum without allocating; sampling is O(log n) except
/// when the minimum moved since the last draw, which triggers an O(n)
/// re-anchor (rare in steady state, and amortized across the draws between
/// minimum changes).
class LotterySampler {
 public:
  /// Every one of the n items takes part in the draw.
  explicit LotterySampler(int n);
  /// Item i takes part in the draw iff eligible[i] (e.g. items with no
  /// update source never do). Every ticket starts at 0.
  explicit LotterySampler(std::vector<bool> eligible);

  int size() const { return static_cast<int>(tickets_.size()); }

  bool IsEligible(int i) const { return eligible_[i]; }
  int eligible_count() const { return eligible_count_; }

  void SetTicket(int i, double ticket);
  double ticket(int i) const { return tickets_[i]; }

  /// Sampling weight of item i after the min-shift (0 for ineligible items).
  double WeightOf(int i) const;

  /// Draws one eligible item; returns -1 when nothing is eligible.
  int Sample(Rng& rng) const;

 private:
  void Rebase();
  void RefreshWeight(int i);
  /// Sets item i's leaf of the min-tree (its ticket, or +inf when
  /// ineligible) and re-derives the path to the root.
  void SetMinLeaf(int i, double value);

  FenwickTree tree_;
  std::vector<double> tickets_;
  std::vector<bool> eligible_;
  std::vector<int> eligible_items_;     ///< for the uniform fallback
  /// Binary min-tree over eligible tickets: leaves at [leaves_, 2*leaves_),
  /// node k = min(node 2k, node 2k+1), so node 1 is the exact minimum.
  std::vector<double> min_tree_;
  size_t leaves_ = 1;                   ///< power of two >= size()
  double floor_ = 0.0;                  ///< min at the last re-anchor (lazy)
  int eligible_count_ = 0;
};

}  // namespace unitdb

#endif  // UNIT_CORE_LOTTERY_H_
