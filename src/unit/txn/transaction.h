#ifndef UNIT_TXN_TRANSACTION_H_
#define UNIT_TXN_TRANSACTION_H_

#include <cstdint>

#include "unit/common/item_span.h"
#include "unit/common/types.h"
#include "unit/txn/outcome.h"
#include "unit/txn/read_set.h"

namespace unitdb {

/// Transaction class. Updates always have strictly higher dispatch priority
/// than queries (the paper's dual-priority ready queue).
enum class TxnClass { kQuery = 0, kUpdate = 1 };

/// Life-cycle states. Queries: kCreated -> (kRejected | kReady) ->
/// kRunning/kBlocked/kReady cycles -> (kCommitted | kAborted). Updates never
/// reach kRejected/kAborted.
enum class TxnState {
  kCreated = 0,
  kReady,      ///< in the ready queue (may or may not hold locks)
  kRunning,    ///< occupying the CPU
  kBlocked,    ///< waiting for a lock
  kCommitted,  ///< finished successfully (outcome set for queries)
  kAborted,    ///< query terminated (rejected or firm-deadline abort)
};

/// One transaction instance managed by the engine: either a user query
/// (reads `items`, carries deadline + freshness requirement) or an update
/// (writes exactly one item).
class Transaction {
 public:
  /// Builds a user query transaction.
  static Transaction MakeQuery(TxnId id, SimTime arrival, SimDuration exec,
                               SimDuration relative_deadline,
                               double freshness_req, ItemSpan items,
                               int preference_class = 0);

  /// Builds an update transaction for `item`. `relative_deadline` is used
  /// only for EDF ordering among updates (updates are never aborted).
  /// `on_demand` marks updates issued by ODU-style policies.
  static Transaction MakeUpdate(TxnId id, SimTime arrival, SimDuration exec,
                                SimDuration relative_deadline, ItemId item,
                                bool on_demand);

  TxnId id() const { return id_; }
  TxnClass cls() const { return cls_; }
  bool is_query() const { return cls_ == TxnClass::kQuery; }
  bool is_update() const { return cls_ == TxnClass::kUpdate; }
  SimTime arrival() const { return arrival_; }
  SimDuration exec_time() const { return exec_; }
  SimDuration relative_deadline() const { return relative_deadline_; }
  SimTime absolute_deadline() const { return arrival_ + relative_deadline_; }
  double freshness_req() const { return freshness_req_; }
  const ReadSet& items() const { return items_; }
  /// The single written item of an update.
  ItemId update_item() const { return items_[0]; }
  bool on_demand() const { return on_demand_; }
  /// User preference class of a query (0 when unused).
  int preference_class() const { return preference_class_; }

  /// The estimated execution time qe_i used by admission control. Defaults
  /// to the true demand; the engine may overwrite it with a noisy estimate.
  SimDuration estimate() const { return estimate_; }
  void set_estimate(SimDuration e) { estimate_ = e; }

  /// The QueryRequest::id this query transaction was built from — purely
  /// observational (never read by the engine or any policy). The sharded
  /// runner (shard/sharded.h) threads the parent query's trace index
  /// through it so per-shard sub-query results can be joined back;
  /// kInvalidTxn for updates and fault-injected queries.
  TxnId trace_id() const { return trace_id_; }
  void set_trace_id(TxnId id) { trace_id_ = id; }

  /// CPU utilization share qe_i / qt_i of the query (Eq. 6's DT).
  double CpuUtilizationShare() const;

  // --- engine-managed runtime state ---

  TxnState state() const { return state_; }
  void set_state(TxnState s) { state_ = s; }
  Outcome outcome() const { return outcome_; }
  void set_outcome(Outcome o) { outcome_ = o; }
  bool Terminal() const {
    return state_ == TxnState::kCommitted || state_ == TxnState::kAborted;
  }

  SimDuration remaining() const { return remaining_; }
  void set_remaining(SimDuration r) { remaining_ = r; }
  /// Resets remaining work to the full demand (2PL-HP restart).
  void ResetWork() { remaining_ = exec_; }

  bool holds_locks() const { return holds_locks_; }
  void set_holds_locks(bool h) { holds_locks_ = h; }

  int restarts() const { return restarts_; }
  void IncrementRestarts() { ++restarts_; }

  int refresh_rounds() const { return refresh_rounds_; }
  void IncrementRefreshRounds() { ++refresh_rounds_; }

  SimTime commit_time() const { return commit_time_; }
  void set_commit_time(SimTime t) { commit_time_ = t; }

  /// Slot of this transaction in its ReadyQueue's intrusive heap (-1 when
  /// not queued). Owned by the ReadyQueue; a transaction can sit in at most
  /// one ready queue at a time.
  int32_t ready_pos() const { return ready_pos_; }
  void set_ready_pos(int32_t pos) { ready_pos_ = pos; }

  /// Freshness of the read set at commit (queries only; -1 before commit).
  double observed_freshness() const { return observed_freshness_; }
  void set_observed_freshness(double f) { observed_freshness_ = f; }

  /// Packed {slot index, generation} handle of this transaction in its
  /// owning TxnSlab (txn/txn_slab.h); 0 when the transaction does not live
  /// in a slab (reference engine, tests). Stamped by the slab on allocation
  /// and carried by deadline events so a recycled slot turns a stale
  /// deadline into a no-op.
  int64_t slab_handle() const { return slab_handle_; }
  void set_slab_handle(int64_t h) { slab_handle_ = h; }

 private:
  friend class TxnSlab;  // constructs empty slot objects, re-stamps handles
  Transaction() = default;

  TxnId id_ = kInvalidTxn;
  TxnClass cls_ = TxnClass::kQuery;
  SimTime arrival_ = 0;
  SimDuration exec_ = 0;
  SimDuration relative_deadline_ = 0;
  double freshness_req_ = 0.0;
  ReadSet items_;
  bool on_demand_ = false;
  int preference_class_ = 0;
  SimDuration estimate_ = 0;
  TxnId trace_id_ = kInvalidTxn;

  TxnState state_ = TxnState::kCreated;
  Outcome outcome_ = Outcome::kPending;
  SimDuration remaining_ = 0;
  bool holds_locks_ = false;
  int restarts_ = 0;
  int refresh_rounds_ = 0;
  SimTime commit_time_ = -1;
  double observed_freshness_ = -1.0;
  int32_t ready_pos_ = -1;
  int64_t slab_handle_ = 0;
};

}  // namespace unitdb

#endif  // UNIT_TXN_TRANSACTION_H_
