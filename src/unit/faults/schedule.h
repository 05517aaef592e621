#ifndef UNIT_FAULTS_SCHEDULE_H_
#define UNIT_FAULTS_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "unit/common/status.h"
#include "unit/common/types.h"
#include "unit/faults/scenario.h"
#include "unit/workload/spec.h"

namespace unitdb {

/// Parses an explicit item selector: "a", "a-b", or a comma-separated list
/// of those such as "1,4-6" (the faults/scenario.h grammar minus "*").
/// Appends the ids to `out` in selector order; fails with INVALID_ARGUMENT
/// naming the offending token when one is malformed or leaves
/// [0, num_items).
Status ParseItemSelection(const std::string& items, int num_items,
                          std::vector<ItemId>* out);

/// has_source[i] != 0 iff item i of `workload` has a periodic update
/// source: the items an outage or burst may select.
std::vector<char> UpdateSourceMask(const Workload& workload);

/// One compiled fault boundary: the engine flips the fault's effect on at
/// the start edge and off at the stop edge. Item-scoped faults carry a span
/// into FaultSchedule::items(); scalar faults carry their magnitude.
struct FaultEdge {
  SimTime time = 0;
  int32_t fault = 0;  ///< index into the source spec's fault list
  FaultKind kind = FaultKind::kUpdateOutage;
  bool start = false;
  /// factor (slowdown), delta (freshness-shift), rate_hz (burst/load-step);
  /// 0 for outages.
  double magnitude = 0.0;
  int32_t item_begin = 0;  ///< span into FaultSchedule::items()
  int32_t item_count = 0;  ///< 0 for non-item-scoped kinds
};

/// One pre-materialized forced update delivery (kUpdateBurst).
struct InjectedUpdate {
  SimTime time = 0;
  ItemId item = kInvalidItem;
};

/// A FaultScenarioSpec compiled against one concrete workload and one
/// injection seed: every edge, every injected query arrival (kLoadStep),
/// and every forced update delivery (kUpdateBurst) is materialized up
/// front, so the engine's fault hooks are allocation-free and RNG-free —
/// attaching a schedule (even an empty one) never perturbs the engine's
/// own random streams, and a given (spec, workload, seed) triple always
/// compiles to the bit-identical schedule.
class FaultSchedule {
 public:
  FaultSchedule() = default;

  /// Compiles `spec` for `workload`. `workload_seed` is the run's workload
  /// seed (ReplicationSeed(base, i) for replication i); it is mixed with
  /// spec.seed so every replication draws its own injection stream while
  /// staying reproducible. Fails when an item selection names an item
  /// without an update source (outage/burst would be silent no-ops) or a
  /// window lies entirely outside [0, duration); windows are otherwise
  /// clamped to the run. Load-step and retry-storm templates are read in
  /// one pass of the workload's query cursor, so a streamed workload
  /// compiles to the schedule of its materialized twin.
  static StatusOr<FaultSchedule> Compile(const FaultScenarioSpec& spec,
                                         const Workload& workload,
                                         uint64_t workload_seed);

  const FaultScenarioSpec& spec() const { return spec_; }
  bool empty() const { return edges_.empty(); }

  /// All edges, sorted by (time, fault index); starts precede stops at
  /// equal times only via that fault-index order — windows of one fault
  /// never collapse because end_s > start_s is validated.
  const std::vector<FaultEdge>& edges() const { return edges_; }

  /// Backing store for the per-edge item spans.
  const std::vector<ItemId>& items() const { return items_; }

  /// Load-step query arrivals, sorted by arrival (stable: ties keep
  /// generation order). `id` is kInvalidTxn — the engine assigns txn ids.
  const std::vector<QueryRequest>& injected_queries() const {
    return injected_queries_;
  }

  /// Burst deliveries, sorted by (time, item).
  const std::vector<InjectedUpdate>& injected_updates() const {
    return injected_updates_;
  }

  /// Envelope of every fault window (clamped to the run); both 0 when the
  /// schedule is empty. The settling-time metrics measure dip inside and
  /// recovery after this envelope.
  SimTime envelope_start() const { return envelope_start_; }
  SimTime envelope_end() const { return envelope_end_; }

 private:
  FaultScenarioSpec spec_;
  std::vector<FaultEdge> edges_;
  std::vector<ItemId> items_;
  std::vector<QueryRequest> injected_queries_;
  std::vector<InjectedUpdate> injected_updates_;
  SimTime envelope_start_ = 0;
  SimTime envelope_end_ = 0;
};

}  // namespace unitdb

#endif  // UNIT_FAULTS_SCHEDULE_H_
