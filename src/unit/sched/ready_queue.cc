#include "unit/sched/ready_queue.h"

#include <algorithm>
#include <cassert>

namespace unitdb {

ReadyQueue::ReadyQueue(QueueDiscipline discipline)
    : updates_(ReadyOrder{discipline}), queries_(ReadyOrder{discipline}) {}

void ReadyQueue::Insert(Transaction* txn) {
  assert(txn != nullptr);
  assert(!Contains(txn));
  if (txn->is_update()) {
    updates_.Push(txn);
    update_work_ += txn->remaining();
  } else {
    queries_.Push(txn);
  }
  peak_size_ = std::max(peak_size_, size());
}

bool ReadyQueue::Remove(const Transaction* txn) {
  Transaction* t = const_cast<Transaction*>(txn);
  if (t->is_update()) {
    if (updates_.Erase(t)) {
      update_work_ -= t->remaining();
      return true;
    }
    return false;
  }
  return queries_.Erase(t);
}

bool ReadyQueue::Contains(const Transaction* txn) const {
  return txn->is_update() ? updates_.Contains(txn) : queries_.Contains(txn);
}

Transaction* ReadyQueue::Top() const {
  if (!updates_.empty()) return updates_.top();
  if (!queries_.empty()) return queries_.top();
  return nullptr;
}

Transaction* ReadyQueue::PopTop() {
  Transaction* top = Top();
  if (top != nullptr) Remove(top);
  return top;
}

bool ReadyQueue::HigherPriority(const Transaction& a,
                                const Transaction& b) const {
  if (a.cls() != b.cls()) return a.is_update();
  return updates_.order()(&a, &b);
}

}  // namespace unitdb
