#ifndef UNIT_DB_DATABASE_H_
#define UNIT_DB_DATABASE_H_

#include <algorithm>
#include <vector>

#include "unit/common/item_span.h"
#include "unit/common/status.h"
#include "unit/common/types.h"
#include "unit/db/data_item.h"

namespace unitdb {

/// The simulated database D = {d_1 ... d_S}: a dense array of data items,
/// each refreshed by a periodic source. The database owns the lag-based
/// freshness accounting of the paper (Eq. 1): `Udrop_j(t)` is the number of
/// source generations of d_j that occurred after the one currently installed
/// and up to time t; item freshness is 1 / (1 + Udrop_j(t)).
///
/// Source generations are purely arithmetic (generation k of item j happens
/// at phase_j + k * pi_j), so tracking freshness costs O(1) per probe and no
/// simulation events.
class Database {
 public:
  /// Builds a database of `num_items` items with no update sources (always
  /// fresh); sources are attached via ApplySpecs or SetSource.
  explicit Database(int num_items);

  /// Freezes every source at `horizon`: no generation occurs later. The
  /// engine sets this to the workload duration so that queries draining
  /// past the arrival horizon are not charged for updates that no longer
  /// arrive.
  void SetSourceHorizon(SimTime horizon) { horizon_ = horizon; }

  /// Attaches update sources from specs. Fails on out-of-range items,
  /// non-positive periods/exec times, or duplicate specs for one item.
  Status ApplySpecs(const std::vector<ItemUpdateSpec>& specs);

  /// Attaches/overwrites a single item's source.
  Status SetSource(const ItemUpdateSpec& spec);

  int num_items() const { return static_cast<int>(items_.size()); }

  const DataItemState& item(ItemId id) const { return items_[id]; }
  DataItemState& mutable_item(ItemId id) { return items_[id]; }

  /// Index of the newest source generation of `id` at time `t`; -1 if the
  /// source has not produced anything yet (item still holds its initial
  /// value, which is fresh by definition).
  int64_t GenerationAt(ItemId id, SimTime t) const;

  /// Number of source generations dropped/not-yet-applied since the
  /// installed one: max(0, GenerationAt(t) - installed_generation).
  int64_t Udrop(ItemId id, SimTime t) const;

  /// Lag-based freshness 1 / (1 + Udrop) in (0, 1].
  double Freshness(ItemId id, SimTime t) const;

  /// Paper Eq. 1: freshness of a query's read set = min over items.
  double QueryFreshness(ItemSpan items, SimTime t) const;

  /// Installs the newest generation available at `value_time` (the moment
  /// the update transaction pulled its value). Also bumps applied_updates.
  void ApplyUpdate(ItemId id, SimTime value_time);

  /// Records a committed query access (bookkeeping for Fig. 3 / policies).
  void RecordAccess(ItemId id) { ++items_[id].query_accesses; }

  /// Sets the modulated period pc_j; clamped to >= pi_j.
  void SetCurrentPeriod(ItemId id, SimDuration period) {
    DataItemState& it = items_[id];
    it.current_period = std::max(period, it.ideal_period);
  }

  /// Number of items whose current period is stretched beyond ideal.
  int DegradedCount() const;

 private:
  std::vector<DataItemState> items_;
  SimTime horizon_ = kSimTimeMax;
};

}  // namespace unitdb

#endif  // UNIT_DB_DATABASE_H_
