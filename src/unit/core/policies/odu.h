#ifndef UNIT_CORE_POLICIES_ODU_H_
#define UNIT_CORE_POLICIES_ODU_H_

#include <cstdint>
#include <string>

#include "unit/core/policy.h"

namespace unitdb {

/// Baseline ODU (On-Demand Update, paper Section 4.1): no periodic update
/// stream and no admission control; "updates are executed only when a query
/// finds that a needed data item is stale". The query finds out when it
/// arrives: each arriving query spawns refresh transactions for its stale
/// items, which run at update priority ahead of every queued query. The
/// extra refresh work delays queries — under flash crowds concurrent
/// arrivals re-request items whose refresh is still in flight, producing an
/// avalanche — "the additional update issued may also delay the query and
/// lead to missed deadlines" (paper).
class OduPolicy : public Policy {
 public:
  /// `dedupe_in_flight` suppresses refreshes for items that already have an
  /// update transaction in the system; without it, concurrent arrivals
  /// re-request in-flight items and the refresh stream avalanches under
  /// bursts. Defaults on (matching the paper's IMU~ODU behaviour under
  /// positively correlated updates); `bench_grid figure=a4` quantifies it.
  explicit OduPolicy(bool dedupe_in_flight = true)
      : dedupe_in_flight_(dedupe_in_flight) {}

  std::string name() const override { return "odu"; }

  bool UsesPeriodicUpdates() const override { return false; }

  bool AdmitQuery(EngineContext& engine, const Transaction& query) override;

  /// Safety net: if an item is still stale when the query reaches the CPU
  /// (e.g. a fresh source generation landed while it queued), refresh once
  /// more before reading, bounded by EngineParams::max_refresh_rounds.
  bool BeforeQueryDispatch(EngineContext& engine, Transaction& query) override;

  int64_t refreshes_issued() const { return refreshes_issued_; }
  int64_t postponements() const { return postponements_; }

 private:
  /// Issues refreshes for stale items of `query`; returns how many.
  int RefreshStaleItems(EngineContext& engine, const Transaction& query);

  bool dedupe_in_flight_;
  int64_t refreshes_issued_ = 0;
  int64_t postponements_ = 0;
};

}  // namespace unitdb

#endif  // UNIT_CORE_POLICIES_ODU_H_
