#include "unit/db/database.h"

#include <algorithm>
#include <cassert>

namespace unitdb {

Database::Database(int num_items) {
  assert(num_items > 0);
  items_.resize(num_items);
}

Status Database::ApplySpecs(const std::vector<ItemUpdateSpec>& specs) {
  std::vector<bool> seen(items_.size(), false);
  for (const auto& spec : specs) {
    if (spec.item < 0 || spec.item >= num_items()) {
      return Status::OutOfRange("item id " + std::to_string(spec.item) +
                                " outside [0, " + std::to_string(num_items()) +
                                ")");
    }
    if (seen[spec.item]) {
      return Status::AlreadyExists("duplicate update spec for item " +
                                   std::to_string(spec.item));
    }
    seen[spec.item] = true;
    Status s = SetSource(spec);
    if (!s.ok()) {
      return Status(s.code(), "update spec for item " +
                                  std::to_string(spec.item) + ": " +
                                  s.message());
    }
  }
  return Status::Ok();
}

Status Database::SetSource(const ItemUpdateSpec& spec) {
  if (spec.item < 0 || spec.item >= num_items()) {
    return Status::OutOfRange("item id out of range");
  }
  if (spec.ideal_period <= 0) {
    return Status::InvalidArgument("ideal_period must be positive");
  }
  if (spec.update_exec <= 0) {
    return Status::InvalidArgument("update_exec must be positive");
  }
  if (spec.phase < 0 || spec.phase >= spec.ideal_period) {
    return Status::InvalidArgument("phase must lie in [0, ideal_period)");
  }
  DataItemState& it = items_[spec.item];
  it.ideal_period = spec.ideal_period;
  it.update_exec = spec.update_exec;
  it.phase = spec.phase;
  it.current_period = spec.ideal_period;
  it.installed_generation = -1;
  return Status::Ok();
}

int64_t Database::GenerationAt(ItemId id, SimTime t) const {
  const DataItemState& it = items_[id];
  t = std::min(t, horizon_);
  if (t < it.phase || it.ideal_period >= kNoUpdates) return -1;
  return (t - it.phase) / it.ideal_period;
}

int64_t Database::Udrop(ItemId id, SimTime t) const {
  const DataItemState& it = items_[id];
  const int64_t gen = GenerationAt(id, t);
  return std::max<int64_t>(0, gen - it.installed_generation);
}

double Database::Freshness(ItemId id, SimTime t) const {
  return 1.0 / (1.0 + static_cast<double>(Udrop(id, t)));
}

double Database::QueryFreshness(ItemSpan items, SimTime t) const {
  double f = 1.0;
  for (ItemId id : items) f = std::min(f, Freshness(id, t));
  return f;
}

void Database::ApplyUpdate(ItemId id, SimTime value_time) {
  DataItemState& it = items_[id];
  it.installed_generation =
      std::max(it.installed_generation, GenerationAt(id, value_time));
  ++it.applied_updates;
}

void Database::SetCurrentPeriod(ItemId id, SimDuration period) {
  DataItemState& it = items_[id];
  it.current_period = std::max(period, it.ideal_period);
}

int Database::DegradedCount() const {
  int n = 0;
  for (const auto& it : items_) {
    if (it.ideal_period < kNoUpdates && it.current_period > it.ideal_period) {
      ++n;
    }
  }
  return n;
}

}  // namespace unitdb
