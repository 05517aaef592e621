#ifndef UNIT_TXN_TXN_SLAB_H_
#define UNIT_TXN_TXN_SLAB_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "unit/txn/transaction.h"

namespace unitdb {

/// Fixed-slot arena of Transaction objects, replacing the engine's old
/// append-only `std::deque<Transaction>`: resolved transactions return
/// their slot (and their read-set storage) for reuse, so a run's memory
/// footprint is O(peak live transactions) instead of O(total
/// transactions). Slots live in fixed-size chunks so Transaction* stays
/// stable for the lifetime of its slot (the ready queue, the admission
/// index, the blocked list, the lock table and the running pointer all hold
/// raw pointers). Released slots wait on a stack, and Create takes the most
/// recently released one before it cuts a new slot.
class TxnSlab {
 public:
  TxnSlab() = default;
  TxnSlab(const TxnSlab&) = delete;
  TxnSlab& operator=(const TxnSlab&) = delete;

  /// Moves `proto` into a free slot (reusing a released one when available).
  /// The returned pointer is valid until Release.
  Transaction* Create(Transaction&& proto) {
    Transaction* t;
    if (!free_.empty()) {
      t = free_.back();
      free_.pop_back();
    } else {
      const int64_t index = slots_created_++;
      if ((index & kChunkMask) == 0) {
        chunks_.emplace_back(new Transaction[kChunkSize]);
      }
      t = &chunks_.back()[index & kChunkMask];
    }
    *t = std::move(proto);
    ++live_;
    if (live_ > high_water_) high_water_ = live_;
    return t;
  }

  /// Returns `t`'s slot for reuse. `t` must be live, and nothing may still
  /// point at it.
  void Release(Transaction* t) {
    assert(!t->holds_locks() && "the lock table points at this slot");
    assert(t->ready_pos() < 0 && "the ready queue points at this slot");
    free_.push_back(t);
    --live_;
    ++released_;
  }

  /// Transactions currently occupying slots.
  int64_t live() const { return live_; }
  /// Largest number of simultaneously live transactions seen. Equals
  /// slots_created(): a new slot is cut only when no released one waits.
  int64_t high_water() const { return high_water_; }
  /// Distinct slots ever created (the slab's memory footprint).
  int64_t slots_created() const { return slots_created_; }
  /// Slots released for reuse over the run.
  int64_t released() const { return released_; }

 private:
  static constexpr int64_t kChunkSize = 256;
  static constexpr int64_t kChunkMask = kChunkSize - 1;

  std::vector<std::unique_ptr<Transaction[]>> chunks_;
  std::vector<Transaction*> free_;  ///< released slots, most recent last
  int64_t slots_created_ = 0;
  int64_t live_ = 0;
  int64_t high_water_ = 0;
  int64_t released_ = 0;
};

}  // namespace unitdb

#endif  // UNIT_TXN_TXN_SLAB_H_
