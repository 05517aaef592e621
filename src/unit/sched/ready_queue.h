#ifndef UNIT_SCHED_READY_QUEUE_H_
#define UNIT_SCHED_READY_QUEUE_H_

#include <cstddef>
#include <vector>

#include "unit/common/types.h"
#include "unit/txn/transaction.h"

namespace unitdb {

/// Intra-class ordering of the ready queue. The paper uses EDF within each
/// class; FCFS is provided as the classic baseline discipline for the
/// scheduling ablation (`bench_grid figure=a5`).
enum class QueueDiscipline {
  kEdf = 0,   ///< earliest absolute deadline first (paper)
  kFcfs = 1,  ///< first-come-first-served (by transaction id = arrival order)
};

/// The paper's dispatching discipline: a dual-priority ready queue where
/// update transactions always rank above user queries, with EDF (or FCFS)
/// ordering transactions within each class. Ties break by transaction id
/// (arrival order), making dispatch deterministic.
///
/// Implemented as two intrusive binary heaps: each Transaction carries its
/// heap slot (`ready_pos`), so Insert/Remove/PopTop are O(log n) with zero
/// per-node allocation (the seed used node-allocating std::sets). Dispatch
/// order is identical to the seed's: the comparator is a strict total order
/// (class, then deadline/arrival, then id), so the heap minimum is unique.
///
/// Stores non-owning pointers; the engine owns all transactions.
class ReadyQueue {
 public:
  explicit ReadyQueue(QueueDiscipline discipline = QueueDiscipline::kEdf);

  QueueDiscipline discipline() const { return discipline_; }

  /// Inserts a transaction (must not already be present).
  void Insert(Transaction* txn);

  /// Removes a transaction if present; returns whether it was present.
  bool Remove(const Transaction* txn);

  bool Contains(const Transaction* txn) const;

  /// Highest-priority transaction (first update, else first query), or
  /// nullptr when empty.
  Transaction* Top() const;

  /// Removes and returns Top(); nullptr when empty.
  Transaction* PopTop();

  bool empty() const { return updates_.empty() && queries_.empty(); }
  int update_count() const { return static_cast<int>(updates_.size()); }
  int query_count() const { return static_cast<int>(queries_.size()); }
  int size() const { return update_count() + query_count(); }

  /// The queued queries, in heap order (no priority order to rely on).
  const std::vector<Transaction*>& queries() const { return queries_; }

  /// Largest size() ever observed (perf telemetry; monotonic).
  int peak_size() const { return peak_size_; }

  /// Sum of remaining service demand of every queued update.
  SimDuration TotalUpdateWork() const { return update_work_; }

  /// True iff `a` should dispatch before `b` under this queue's discipline
  /// (class first, then intra-class order, then id).
  bool HigherPriority(const Transaction& a, const Transaction& b) const;

 private:
  /// Strict total order within one class: EDF deadline (under kEdf), then
  /// transaction id.
  bool Before(const Transaction* a, const Transaction* b) const {
    if (discipline_ == QueueDiscipline::kEdf &&
        a->absolute_deadline() != b->absolute_deadline()) {
      return a->absolute_deadline() < b->absolute_deadline();
    }
    return a->id() < b->id();
  }

  void HeapPush(std::vector<Transaction*>& heap, Transaction* t);
  bool HeapErase(std::vector<Transaction*>& heap, Transaction* t);
  bool HeapContains(const std::vector<Transaction*>& heap,
                    const Transaction* t) const;
  void SiftUp(std::vector<Transaction*>& heap, size_t i);
  void SiftDown(std::vector<Transaction*>& heap, size_t i);
  static void Place(std::vector<Transaction*>& heap, size_t i, Transaction* t);

  QueueDiscipline discipline_;
  std::vector<Transaction*> updates_;
  std::vector<Transaction*> queries_;
  SimDuration update_work_ = 0;
  int peak_size_ = 0;
};

}  // namespace unitdb

#endif  // UNIT_SCHED_READY_QUEUE_H_
