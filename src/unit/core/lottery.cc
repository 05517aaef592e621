#include "unit/core/lottery.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

namespace unitdb {

LotterySampler::LotterySampler(int n)
    : LotterySampler(std::vector<bool>(static_cast<size_t>(n), true)) {}

LotterySampler::LotterySampler(std::vector<bool> eligible)
    : tree_(eligible.size()),
      tickets_(eligible.size(), 0.0),
      eligible_(std::move(eligible)),
      leaves_(std::bit_ceil(tickets_.size())) {
  assert(!tickets_.empty());
  // Every ticket starts at 0: eligible leaves of the min-tree hold 0,
  // ineligible and padding leaves +inf.
  min_tree_.assign(2 * leaves_, std::numeric_limits<double>::infinity());
  eligible_items_.reserve(tickets_.size());
  for (int i = 0; i < size(); ++i) {
    if (!eligible_[i]) continue;
    eligible_items_.push_back(i);
    min_tree_[leaves_ + static_cast<size_t>(i)] = 0.0;
  }
  eligible_count_ = static_cast<int>(eligible_items_.size());
  for (size_t k = leaves_ - 1; k >= 1; --k) {
    min_tree_[k] = std::min(min_tree_[2 * k], min_tree_[2 * k + 1]);
  }
  // floor_ == 0 == every eligible ticket: weights start at zero (uniform
  // fallback).
}

void LotterySampler::SetTicket(int i, double ticket) {
  tickets_[i] = ticket;
  if (!eligible_[i]) return;
  SetMinLeaf(i, ticket);
  if (ticket < floor_) {
    // Weights must stay non-negative: re-anchor at the new minimum.
    Rebase();
  } else {
    RefreshWeight(i);
  }
}

double LotterySampler::WeightOf(int i) const {
  return eligible_[i] ? tree_.Get(static_cast<size_t>(i)) : 0.0;
}

int LotterySampler::Sample(Rng& rng) const {
  if (eligible_count_ == 0) return -1;
  Reanchor();
  const double total = tree_.total();
  // All shifted weights are zero: uniform lottery over eligible items.
  if (total <= kLotteryZeroTotal) return UniformEligible(rng);
  const double dart = rng.NextDouble() * total;
  const int pick = static_cast<int>(tree_.FindPrefix(dart));
  // The dart landed on an ineligible slot: the clamp past the last slot, or
  // a total() that drifted above the tree's own sum. Fall back to
  // uniform-eligible.
  return eligible_[pick] ? pick : UniformEligible(rng);
}

void LotterySampler::Reanchor() const {
  // The floor may be stale (above-minimum ticket raises don't re-anchor);
  // re-anchor exactly before drawing so probabilities match the paper's
  // (T_j - T_min) weights. The min-tree gives the exact minimum in O(1);
  // the O(n) re-anchor only runs when the minimum actually moved.
  if (min_tree_[1] != floor_) {
    const_cast<LotterySampler*>(this)->Rebase();
  }
}

int LotterySampler::UniformEligible(Rng& rng) const {
  const size_t k = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(eligible_items_.size()) - 1));
  return eligible_items_[k];
}

void LotterySampler::Rebase() {
  floor_ = eligible_count_ == 0 ? 0.0 : min_tree_[1];
  for (int j = 0; j < size(); ++j) {
    if (eligible_[j]) {
      tree_.Set(static_cast<size_t>(j), tickets_[j] - floor_);
    } else {
      tree_.Set(static_cast<size_t>(j), 0.0);
    }
  }
}

void LotterySampler::RefreshWeight(int i) {
  tree_.Set(static_cast<size_t>(i), tickets_[i] - floor_);
}

void LotterySampler::SetMinLeaf(int i, double value) {
  size_t k = leaves_ + static_cast<size_t>(i);
  min_tree_[k] = value;
  for (k /= 2; k >= 1; k /= 2) {
    min_tree_[k] = std::min(min_tree_[2 * k], min_tree_[2 * k + 1]);
  }
}

}  // namespace unitdb
