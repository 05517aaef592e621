#ifndef UNIT_CORE_ADMISSION_H_
#define UNIT_CORE_ADMISSION_H_

#include <cstdint>
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
};

/// The system USM check's threshold as a count: the fewest endangered
/// queries whose DMF costs, summed one at a time like the paper's
/// per-transaction sum, exceed `rejection_cost`; 0 when no count up to
/// `bound` (the queue length) does.
int64_t EndangeredCap(double dmf_cost, double rejection_cost, int64_t bound);

/// Online EST/admission index over the queued queries, owned by the engine
/// and kept in sync at every ready-queue mutation of a query transaction.
/// The engine answers EngineContext::ProjectAdmission from it.
///
/// A treap keyed on (absolute deadline, txn id) — EDF order, which admission
/// projects under either dispatch discipline — holds exactly the queued
/// queries, whatever their origin (trace, stream, fault injection or
/// session retry), so nothing is precomputed.
/// Each node aggregates its subtree's query count, remaining service demand
/// and min/max "lag" m_k = deadline_k - P_k (P_k = EDF-prefix remaining work
/// through query k within the subtree). One descent in EDF order (Project)
/// carries the work of every query it passes, so the lags it reads are over
/// the whole queue, and answers in O(log N):
///
///  - the deadline check's earlier-deadline work term (EST), read where the
///    descent reaches the first query due after the candidate;
///  - "how many queued queries due after the candidate have a lag in
///    [lo, hi)" — exactly the set it would newly endanger — counted only up
///    to a cap. Subtrees whose shifted [min, max] lag window misses or lies
///    inside [lo, hi) are answered from their aggregates, and the walk stops
///    once the count reaches the cap.
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

  /// What one descent reads (see Project): the remaining demand of the
  /// queued queries due no later than the candidate, and the endangered
  /// count up to the cap.
  struct Projection {
    SimDuration earlier_work = 0;
    int64_t endangered = 0;
  };

  /// One descent for a candidate due at `deadline`: the earlier-deadline
  /// work and, of the queued queries with deadline > `deadline`, the number
  /// whose lag — deadline minus the work of every queued query through
  /// itself in (deadline, id) order — falls in [lo, hi), as min(number,
  /// `cap`). A cap of 0 counts nothing.
  Projection Project(SimTime deadline, int64_t lo, int64_t hi,
                     int64_t cap) const;

  /// Number of currently indexed (queued) queries.
  int64_t occupied() const { return root_ == kNil ? 0 : nodes_[root_].count; }

 private:
  static constexpr int32_t kNil = -1;

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
  /// Project over subtree `t`, whose keys due no later than `d` it skips;
  /// `acc` carries the queued work ahead of the subtree in EDF order and is
  /// advanced past it until the count reaches `cap`.
  void Descend(int32_t t, SimTime d, int64_t lo, int64_t hi, int64_t cap,
               int64_t& acc, Projection& p) const;
  /// Adds to `count` the keys of subtree `t` whose lag falls in [lo, hi),
  /// stopping once it reaches `cap`; `acc` as in Descend.
  void CountLags(int32_t t, int64_t lo, int64_t hi, int64_t cap,
                 int64_t& acc, int64_t& count) const;

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
/// Both checks are O(N_rq) in the paper. The controller asks the engine one
/// question, EngineContext::ProjectAdmission, for the EST and whether the
/// endangered queries outweigh a rejection: the optimized engine answers
/// from one AdmissionIndex descent in O(log N_rq), the reference engine by
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
