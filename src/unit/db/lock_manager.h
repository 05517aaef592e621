#ifndef UNIT_DB_LOCK_MANAGER_H_
#define UNIT_DB_LOCK_MANAGER_H_

#include <vector>

#include "unit/common/types.h"
#include "unit/txn/transaction.h"

namespace unitdb {

/// Item-granularity shared/exclusive lock table implementing the data-access
/// rules of 2PL-HP (Abbott & Garcia-Molina): the *policy* half of 2PL-HP —
/// "a higher-priority requester aborts lower-priority holders" — is driven by
/// the engine, which knows transaction priorities; the lock manager only
/// reports conflicts and tracks ownership.
///
/// A transaction's locks are its read set (S on a query's items, X on an
/// update's one) while `holds_locks()`, so the table keeps only per-item
/// holders, as pointers. S holders form short lists pooled in one vector:
/// per-item vectors left a block per item for teardown to free and the next
/// run's set-up to consolidate (perfbench stream-session `setup_s` +25% on
/// a 4-core Xeon VM, glibc 2.36).
///
/// Usage pattern enforced by the engine keeps the protocol deadlock-free:
/// queries acquire their whole read set atomically (all-or-nothing S locks),
/// updates acquire a single X lock, and blocked transactions hold nothing.
class LockManager {
 public:
  explicit LockManager(int num_items);

  /// Result of an exclusive-lock attempt. Neither granted nor share-locked:
  /// another transaction holds the X lock, and the requester must wait.
  struct XAttempt {
    bool granted = false;
    /// Non-empty when the item is share-locked: the engine must abort these
    /// (lower-priority) holders and retry, per 2PL-HP. In txn-id order.
    std::vector<Transaction*> shared_holders;
  };

  /// Atomically S-locks every item `q` reads and sets its holds_locks().
  /// Fails (locking nothing) if any of them is X-locked. Repeated item ids
  /// count once. `q` must hold nothing.
  bool TryAcquireShared(Transaction* q);

  /// Attempts the X lock on `u->update_item()` and sets holds_locks() when
  /// granted. Grants only if no transaction holds any lock on the item;
  /// otherwise reports who is in the way. `u` must hold nothing.
  XAttempt TryAcquireExclusive(Transaction* u);

  /// Releases every lock `t` holds and clears its holds_locks(). A no-op
  /// for transactions holding nothing.
  void Release(Transaction* t);

  /// True if any transaction holds a lock on `item`.
  bool IsLocked(ItemId item) const {
    const ItemLocks& l = locks_[item];
    return l.exclusive != nullptr || l.shared != kNone;
  }

 private:
  static constexpr int32_t kNone = -1;

  struct ItemLocks {
    const Transaction* exclusive = nullptr;
    int32_t shared = kNone;  ///< head of the item's S-holder list
  };
  /// One S lock: an entry of its item's holder list, or of the free list.
  struct Holder {
    Transaction* txn = nullptr;
    int32_t next = kNone;
  };

  std::vector<ItemLocks> locks_;  // per item
  std::vector<Holder> holders_;   // the entries of every list
  int32_t free_ = kNone;          // head of the free list in holders_
};

}  // namespace unitdb

#endif  // UNIT_DB_LOCK_MANAGER_H_
