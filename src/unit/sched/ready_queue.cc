#include "unit/sched/ready_queue.h"

#include <algorithm>
#include <cassert>

namespace unitdb {

ReadyQueue::ReadyQueue(QueueDiscipline discipline) : discipline_(discipline) {}

void ReadyQueue::Insert(Transaction* txn) {
  assert(txn != nullptr);
  assert(!Contains(txn));
  if (txn->is_update()) {
    HeapPush(updates_, txn);
    update_work_ += txn->remaining();
  } else {
    HeapPush(queries_, txn);
  }
  peak_size_ = std::max(peak_size_, size());
}

bool ReadyQueue::Remove(const Transaction* txn) {
  Transaction* t = const_cast<Transaction*>(txn);
  if (t->is_update()) {
    if (HeapErase(updates_, t)) {
      update_work_ -= t->remaining();
      return true;
    }
    return false;
  }
  return HeapErase(queries_, t);
}

bool ReadyQueue::Contains(const Transaction* txn) const {
  return txn->is_update() ? HeapContains(updates_, txn)
                          : HeapContains(queries_, txn);
}

Transaction* ReadyQueue::Top() const {
  if (!updates_.empty()) return updates_.front();
  if (!queries_.empty()) return queries_.front();
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
  return Before(&a, &b);
}

void ReadyQueue::Place(std::vector<Transaction*>& heap, size_t i,
                       Transaction* t) {
  heap[i] = t;
  t->set_ready_pos(static_cast<int32_t>(i));
}

void ReadyQueue::HeapPush(std::vector<Transaction*>& heap, Transaction* t) {
  heap.push_back(t);
  t->set_ready_pos(static_cast<int32_t>(heap.size() - 1));
  SiftUp(heap, heap.size() - 1);
}

bool ReadyQueue::HeapContains(const std::vector<Transaction*>& heap,
                              const Transaction* t) const {
  const int32_t pos = t->ready_pos();
  return pos >= 0 && static_cast<size_t>(pos) < heap.size() &&
         heap[static_cast<size_t>(pos)] == t;
}

bool ReadyQueue::HeapErase(std::vector<Transaction*>& heap, Transaction* t) {
  if (!HeapContains(heap, t)) return false;
  const size_t pos = static_cast<size_t>(t->ready_pos());
  t->set_ready_pos(-1);
  Transaction* last = heap.back();
  heap.pop_back();
  if (pos == heap.size()) return true;  // erased the tail slot
  Place(heap, pos, last);
  SiftDown(heap, pos);
  if (heap[pos] == last) SiftUp(heap, pos);
  return true;
}

void ReadyQueue::SiftUp(std::vector<Transaction*>& heap, size_t i) {
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!Before(heap[i], heap[parent])) break;
    Transaction* child = heap[i];
    Place(heap, i, heap[parent]);
    Place(heap, parent, child);
    i = parent;
  }
}

void ReadyQueue::SiftDown(std::vector<Transaction*>& heap, size_t i) {
  const size_t n = heap.size();
  while (true) {
    size_t best = i;
    const size_t left = 2 * i + 1;
    const size_t right = 2 * i + 2;
    if (left < n && Before(heap[left], heap[best])) best = left;
    if (right < n && Before(heap[right], heap[best])) best = right;
    if (best == i) return;
    Transaction* tmp = heap[i];
    Place(heap, i, heap[best]);
    Place(heap, best, tmp);
    i = best;
  }
}

}  // namespace unitdb
