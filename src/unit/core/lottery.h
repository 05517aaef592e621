#ifndef UNIT_CORE_LOTTERY_H_
#define UNIT_CORE_LOTTERY_H_

#include <algorithm>
#include <cstddef>
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

  /// Draws k eligible items and hands each to on_pick(int) in draw order:
  /// the picks, and the Rng state after them, of k Sample calls, provided
  /// on_pick changes no ticket. Draws nothing when nothing is eligible.
  /// The darts go eight at a time through one Fenwick descent; a group in
  /// which a dart lands on an ineligible slot (whose fallback draws an extra
  /// UniformInt) is replayed one Sample at a time from its Rng state.
  template <typename OnPick>
  void SampleBatch(Rng& rng, int k, OnPick&& on_pick) const;

 private:
  /// Re-anchors at the exact minimum if it moved since the last re-anchor.
  void Reanchor() const;
  /// Uniform draw over the eligible items (at least one).
  int UniformEligible(Rng& rng) const;
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

/// Total weight at or below which every shifted weight counts as zero and
/// the draw is uniform over the eligible items.
inline constexpr double kLotteryZeroTotal = 1e-12;

template <typename OnPick>
void LotterySampler::SampleBatch(Rng& rng, int k, OnPick&& on_pick) const {
  if (eligible_count_ == 0) return;
  Reanchor();
  const double total = tree_.total();
  if (total <= kLotteryZeroTotal) {
    for (int i = 0; i < k; ++i) on_pick(UniformEligible(rng));
    return;
  }
  constexpr int kGroup = 8;
  for (int drawn = 0; drawn < k; drawn += kGroup) {
    const int group = std::min(kGroup, k - drawn);
    const Rng start = rng;
    double darts[kGroup] = {};
    size_t slots[kGroup];
    for (int d = 0; d < group; ++d) darts[d] = rng.NextDouble() * total;
    tree_.FindPrefixes(darts, slots);
    bool eligible = true;
    for (int d = 0; d < group; ++d) eligible &= eligible_[slots[d]];
    if (eligible) {
      for (int d = 0; d < group; ++d) on_pick(static_cast<int>(slots[d]));
    } else {
      rng = start;
      for (int d = 0; d < group; ++d) on_pick(Sample(rng));
    }
  }
}

}  // namespace unitdb

#endif  // UNIT_CORE_LOTTERY_H_
