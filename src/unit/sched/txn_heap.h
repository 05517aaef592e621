#ifndef UNIT_SCHED_TXN_HEAP_H_
#define UNIT_SCHED_TXN_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "unit/txn/transaction.h"

namespace unitdb {

/// Intrusive binary min-heap of transactions. `Order` is a strict total
/// order over the members (`order(a, b)`: a comes first), so the minimum is
/// unique and the layout depends only on the sequence of calls. Each member
/// keeps its heap index in Transaction::ready_pos (-1 when absent). Push and
/// Erase are O(log n), Contains and top O(1), and nothing is allocated per
/// member. A transaction sits in at most one heap.
///
/// Stores non-owning pointers; the engine owns all transactions.
template <typename Order>
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
    const int32_t pos = t->ready_pos();
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
    const size_t pos = static_cast<size_t>(t->ready_pos());
    t->set_ready_pos(-1);
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
    t->set_ready_pos(static_cast<int32_t>(i));
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

}  // namespace unitdb

#endif  // UNIT_SCHED_TXN_HEAP_H_
