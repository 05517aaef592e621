#ifndef UNIT_SCHED_TXN_HEAP_H_
#define UNIT_SCHED_TXN_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "unit/txn/transaction.h"

namespace unitdb {

/// Intrusive binary min-heap of transactions. `Order` is a strict total
/// order over the members (`order(a, b)`: a comes first), so the minimum is
/// unique and the layout depends only on the sequence of calls. `Slot` names
/// the Transaction field holding each member's heap index (-1 when absent):
/// `Slot::Get(t)` reads it and `Slot::Set(t, pos)` writes it. Push and
/// Erase are O(log n), Contains and top O(1), and nothing is allocated per
/// member. A transaction sits in at most one heap per slot field.
///
/// Stores non-owning pointers; the engine owns all transactions.
template <typename Order, typename Slot>
class TxnHeap {
 public:
  explicit TxnHeap(Order order = Order{}) : order_(order) {}

  const Order& order() const { return order_; }
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  /// The minimum under Order; the heap must not be empty.
  Transaction* top() const { return heap_.front(); }
  /// The members, in heap order (no priority order to rely on).
  const std::vector<Transaction*>& items() const { return heap_; }

  bool Contains(const Transaction* t) const {
    const int32_t pos = Slot::Get(*t);
    return pos >= 0 && static_cast<size_t>(pos) < heap_.size() &&
           heap_[static_cast<size_t>(pos)] == t;
  }

  /// Inserts `t`, which must not be a member.
  void Push(Transaction* t) {
    heap_.push_back(t);
    SiftUp(heap_.size() - 1, t);
  }

  /// Removes `t` if it is a member; returns whether it was.
  bool Erase(Transaction* t) {
    if (!Contains(t)) return false;
    const size_t pos = static_cast<size_t>(Slot::Get(*t));
    Slot::Set(*t, -1);
    Transaction* last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size()) return true;  // erased the tail slot
    if (pos > 0 && order_(last, heap_[(pos - 1) / 2])) {
      SiftUp(pos, last);
    } else {
      SiftDown(pos, last);
    }
    return true;
  }

 private:
  void Place(size_t i, Transaction* t) {
    heap_[i] = t;
    Slot::Set(*t, static_cast<int32_t>(i));
  }

  /// Moves `t`, bound for the hole at `i`, up past every parent it
  /// precedes.
  void SiftUp(size_t i, Transaction* t) {
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!order_(t, heap_[parent])) break;
      Place(i, heap_[parent]);
      i = parent;
    }
    Place(i, t);
  }

  /// Moves `t`, bound for the hole at `i`, down past every child that
  /// precedes it, taking the earlier child each step.
  void SiftDown(size_t i, Transaction* t) {
    const size_t n = heap_.size();
    while (true) {
      size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && order_(heap_[child + 1], heap_[child])) ++child;
      if (!order_(heap_[child], t)) break;
      Place(i, heap_[child]);
      i = child;
    }
    Place(i, t);
  }

  Order order_;
  std::vector<Transaction*> heap_;
};

/// The order of live firm deadlines: absolute deadline, then the FIFO
/// sequence taken at admission (Transaction::deadline_seq), which is the
/// (time, seq) a deadline event pushed at admission would have had.
struct DeadlineOrder {
  bool operator()(const Transaction* a, const Transaction* b) const {
    if (a->absolute_deadline() != b->absolute_deadline()) {
      return a->absolute_deadline() < b->absolute_deadline();
    }
    return a->deadline_seq() < b->deadline_seq();
  }
};

struct DeadlineSlot {
  static int32_t Get(const Transaction& t) { return t.deadline_pos(); }
  static void Set(Transaction& t, int32_t pos) { t.set_deadline_pos(pos); }
};

/// The admitted queries whose firm deadline has not passed and that have not
/// resolved, earliest deadline on top.
using DeadlineHeap = TxnHeap<DeadlineOrder, DeadlineSlot>;

}  // namespace unitdb

#endif  // UNIT_SCHED_TXN_HEAP_H_
