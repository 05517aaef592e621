#include "unit/db/lock_manager.h"

#include <algorithm>
#include <cassert>

namespace unitdb {

LockManager::LockManager(int num_items) {
  assert(num_items > 0);
  locks_.resize(num_items);
}

bool LockManager::TryAcquireShared(Transaction* q) {
  assert(!q->holds_locks() && "txn already holds locks");
  // Never fires under dual priority (no query dispatches while an update
  // holds X); kept so a request can never share an X-locked item.
  for (ItemId id : q->items()) {
    if (locks_[id].exclusive != nullptr) return false;
  }
  for (ItemId id : q->items()) {
    int32_t& head = locks_[id].shared;
    // A repeated id finds q at the head: nothing else is added in between.
    if (head != kNone && holders_[head].txn == q) continue;
    if (free_ == kNone) {
      free_ = static_cast<int32_t>(holders_.size());
      holders_.push_back({nullptr, kNone});
    }
    const int32_t h = free_;
    free_ = holders_[h].next;
    holders_[h] = {q, head};
    head = h;
  }
  q->set_holds_locks(true);
  return true;
}

LockManager::XAttempt LockManager::TryAcquireExclusive(Transaction* u) {
  assert(!u->holds_locks() && "txn already holds locks");
  XAttempt result;
  ItemLocks& l = locks_[u->update_item()];
  if (l.exclusive != nullptr) return result;
  if (l.shared != kNone) {
    for (int32_t h = l.shared; h != kNone; h = holders_[h].next) {
      result.shared_holders.push_back(holders_[h].txn);
    }
    // Deterministic order for the engine's abort loop.
    std::sort(result.shared_holders.begin(), result.shared_holders.end(),
              [](const Transaction* a, const Transaction* b) {
                return a->id() < b->id();
              });
    return result;
  }
  l.exclusive = u;
  u->set_holds_locks(true);
  result.granted = true;
  return result;
}

void LockManager::Release(Transaction* t) {
  if (!t->holds_locks()) return;
  for (ItemId id : t->items()) {
    ItemLocks& l = locks_[id];
    if (l.exclusive == t) {
      l.exclusive = nullptr;
      continue;
    }
    int32_t* link = &l.shared;
    while (*link != kNone && holders_[*link].txn != t) {
      link = &holders_[*link].next;
    }
    if (*link == kNone) continue;  // a repeated id, already unlinked
    const int32_t h = *link;
    *link = holders_[h].next;
    holders_[h].next = free_;
    free_ = h;
  }
  t->set_holds_locks(false);
}

}  // namespace unitdb
