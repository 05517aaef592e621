#ifndef UNIT_CORE_ADMISSION_H_
#define UNIT_CORE_ADMISSION_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "unit/common/types.h"
#include "unit/core/usm.h"
#include "unit/txn/transaction.h"
#include "unit/workload/spec.h"

namespace unitdb {

class EngineContext;

/// Tunables of the paper's Query Admission Control (Section 3.3).
struct AdmissionParams {
  double initial_c_flex = 1.0;  ///< lag ratio C_flex (larger = tighter)
  double adjust_step = 0.10;    ///< TAC/LAC adjust C_flex by +/-10%
  double min_c_flex = 0.1;
  double max_c_flex = 16.0;
  /// Enables the system USM check on top of the deadline check.
  bool usm_check_enabled = true;
  /// Effective per-query cost used by the USM check when every weight is
  /// zero (the naive setting): endangered transactions and the candidate are
  /// then compared at unit cost.
  double zero_weight_unit_cost = 1.0;
};

/// Online EST/admission index over the queued queries, owned by the engine
/// and kept in sync at every ready-queue mutation of a query transaction.
/// The engine answers EngineContext's three admission questions from it.
///
/// A treap keyed on (absolute deadline, txn id) — EDF order, which admission
/// projects under either dispatch discipline — holds exactly the queued
/// queries, whatever their origin (trace, stream, fault injection or
/// session retry), so nothing is precomputed.
/// Each node aggregates its subtree's query count, remaining service demand
/// and min/max "lag" m_k = deadline_k - P_k (P_k = EDF-prefix remaining work
/// through query k within the subtree). That answers, in O(log N):
///
///  - the deadline check's earlier-deadline work term (EST);
///  - "how many queued queries with deadline > d have lag in [lo, hi)",
///    with P_k taken over that deadline suffix — exactly the set of
///    transactions the candidate would newly endanger. Subtrees whose
///    shifted [min, max] lag window misses or lies inside [lo, hi) are
///    answered from their aggregates, so the count is O(log N) except when
///    many queries straddle the window.
///
/// Treap priorities hash the txn id with SplitMix64, so the index draws
/// nothing from the engine RNG. Nodes live in a pooled vector with a free
/// list: once the pool has grown to the peak queue depth, an insert
/// allocates nothing.
///
/// Integer (SimTime) arithmetic end to end, so every answer matches the
/// reference engine's scan (model/reference_engine.h) bit for bit.
class AdmissionIndex {
 public:
  /// Empties the index; O(1). `workload` is not read. Kept, with enabled(),
  /// only for perfbench's set-up timing.
  void Init(const Workload& workload);

  /// Always true: every engine keeps its index.
  bool enabled() const { return true; }

  /// The query entered the ready queue (remaining stays fixed while queued).
  void OnInsert(const Transaction& query);
  /// The query left the ready queue.
  void OnRemove(const Transaction& query);

  /// Sum of remaining demand of queued queries with deadline <= `deadline`.
  SimDuration EarlierWork(SimTime deadline) const;

  /// Number of queued queries with deadline > `deadline`.
  int64_t LaterCount(SimTime deadline) const;

  /// Number of queued queries with deadline > `deadline` whose EDF lag
  /// (deadline minus the prefix work of later-deadline queries through
  /// themselves) falls in [lo, hi) — the candidate's newly endangered set.
  int64_t CountEndangered(SimTime deadline, int64_t lo, int64_t hi) const;

  /// Number of currently indexed (queued) queries.
  int64_t occupied() const { return root_ == kNil ? 0 : nodes_[root_].count; }

 private:
  static constexpr int32_t kNil = -1;
  static constexpr SimTime kWholeSubtree = std::numeric_limits<SimTime>::min();

  /// One cache line per node.
  struct alignas(64) Node {
    SimTime deadline = 0;  ///< key, major
    TxnId id = 0;          ///< key, minor
    int64_t own_work = 0;  ///< this query's remaining demand
    int64_t work = 0;      ///< sum of remaining demand in the subtree
    int64_t min_m = 0;     ///< min over subtree of deadline - local prefix work
    int64_t max_m = 0;     ///< max of the same
    int32_t left = kNil;   ///< doubles as the free-list link of a free node
    int32_t right = kNil;
    int32_t count = 1;     ///< queries in the subtree
    /// Max-heap order: the high half of SplitMix64(id). A tie only affects
    /// the tree's shape, never an answer.
    uint32_t priority = 0;
  };

  /// Whether (deadline, id) sorts before node `n`'s key.
  static bool KeyBefore(SimTime deadline, TxnId id, const Node& n) {
    return deadline != n.deadline ? deadline < n.deadline : id < n.id;
  }
  /// Recomputes node `x`'s aggregates from its children.
  void Pull(int32_t x);
  /// Inserts node `x` into subtree `t`; returns the new subtree root.
  int32_t InsertAt(int32_t t, int32_t x);
  /// Splits subtree `t` into the keys before and after (deadline, id).
  void Split(int32_t t, SimTime deadline, TxnId id, int32_t* before,
             int32_t* after);
  /// Joins subtrees `a` and `b`, every key of `a` before every key of `b`.
  int32_t Join(int32_t a, int32_t b);
  /// Erases key (deadline, id) from subtree `t`; returns its new root.
  int32_t EraseAt(int32_t t, SimTime deadline, TxnId id);
  /// Endangered count over the keys of subtree `t` with deadline > `d`
  /// (every key when d == kWholeSubtree); `acc` carries the suffix work
  /// before the subtree and is advanced past it.
  int64_t Endangered(int32_t t, SimTime d, int64_t lo, int64_t hi,
                     int64_t& acc) const;

  int32_t root_ = kNil;
  int32_t free_ = kNil;     ///< head of the free-node list
  std::vector<Node> nodes_;  ///< node pool
};

/// The paper's two-stage admission control:
///
///  1. *Transaction deadline check*: the query is promising iff
///     C_flex * EST_i + qe_i < qt_i, where EST_i (earliest possible start)
///     sums the remaining demand of the running transaction, all queued
///     updates, and queued queries with earlier deadlines.
///  2. *System USM check*: simulate inserting the query into the EDF
///     schedule; transactions that would newly miss their deadlines are
///     "endangered". Reject when their total DMF cost exceeds the rejection
///     cost C_r of turning the candidate away.
///
/// Both checks are O(N_rq) in the paper. The controller asks the engine
/// (EngineContext) for the queue sums they need: the optimized engine
/// answers from its AdmissionIndex in O(log N_rq), the reference engine by
/// scanning its ready queue, with bit-identical decisions. Either way the
/// projection is the EDF schedule, whatever the dispatch discipline.
class AdmissionController {
 public:
  AdmissionController(const AdmissionParams& params,
                      const UsmWeights& weights);

  /// Full admission decision for `candidate` at its arrival instant, using
  /// the controller's default weights.
  bool Admit(const EngineContext& engine, const Transaction& candidate);

  /// Same, valuing the candidate and the endangered transactions with
  /// caller-chosen weights (multi-preference support).
  bool Admit(const EngineContext& engine, const Transaction& candidate,
             const UsmWeights& weights);

  /// TAC signal: tighten (C_flex up by adjust_step).
  void Tighten();
  /// LAC signal: loosen (C_flex down by adjust_step).
  void Loosen();

  double c_flex() const { return c_flex_; }
  int64_t rejected_by_deadline() const { return rejected_by_deadline_; }
  int64_t rejected_by_usm() const { return rejected_by_usm_; }
  int64_t admitted() const { return admitted_; }

  /// Which check failed the most recent Admit call ("deadline" or "usm";
  /// nullptr when it admitted). Static-storage strings — callers may hold
  /// the pointer. Feeds the reject-reason field of obs/ trace events.
  const char* last_reject_reason() const { return last_reject_reason_; }

 private:
  AdmissionParams params_;
  UsmWeights weights_;
  double c_flex_;
  int64_t rejected_by_deadline_ = 0;
  int64_t rejected_by_usm_ = 0;
  int64_t admitted_ = 0;
  const char* last_reject_reason_ = nullptr;
};

}  // namespace unitdb

#endif  // UNIT_CORE_ADMISSION_H_
