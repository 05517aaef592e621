#ifndef UNIT_TXN_TXN_SLAB_H_
#define UNIT_TXN_TXN_SLAB_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "unit/txn/transaction.h"

namespace unitdb {

/// Generation-tagged handle of a slot in a TxnSlab, packed into one int64 so
/// an engine event (the kQueryDeadline payload) can carry it. The
/// generation disambiguates reuse: releasing a slot bumps its generation, so
/// a handle minted before the release no longer resolves.
struct TxnSlot {
  uint32_t index = 0;
  uint32_t generation = 0;

  int64_t Pack() const {
    return static_cast<int64_t>(
        (static_cast<uint64_t>(generation) << 32) | index);
  }
  static TxnSlot Unpack(int64_t handle) {
    const uint64_t h = static_cast<uint64_t>(handle);
    return TxnSlot{static_cast<uint32_t>(h & 0xFFFFFFFFu),
                   static_cast<uint32_t>(h >> 32)};
  }
};

/// Fixed-slot arena of Transaction objects with a free list, replacing the
/// engine's old append-only `std::deque<Transaction>`: resolved transactions
/// return their slot (and their read-set storage) for reuse, so a run's
/// memory footprint is O(peak live transactions) instead of O(total
/// transactions). Slots live in fixed-size chunks so Transaction* stays
/// stable for the lifetime of its slot (the ready queue, blocked list, and
/// running pointer all hold raw pointers).
///
/// Handles, not pointers, go into events: Get() returns nullptr once the
/// slot was released (generation mismatch), which is exactly the staleness
/// test EventIsDead needs after a slot is recycled by a later transaction.
class TxnSlab {
 public:
  TxnSlab() = default;
  TxnSlab(const TxnSlab&) = delete;
  TxnSlab& operator=(const TxnSlab&) = delete;

  /// Moves `proto` into a free slot (reusing a released one when available)
  /// and stamps its slab handle. The returned pointer is valid until
  /// Release.
  Transaction* Create(Transaction&& proto) {
    uint32_t index;
    if (free_head_ != kNone) {
      index = free_head_;
      free_head_ = next_free_[index];
    } else {
      index = static_cast<uint32_t>(slots_created_);
      ++slots_created_;
      if ((index & kChunkMask) == 0) {
        chunks_.emplace_back(new Transaction[kChunkSize]);
      }
      generation_.push_back(0);
      next_free_.push_back(kNone);
    }
    Transaction* t = Slot(index);
    *t = std::move(proto);
    t->slab_handle_ = TxnSlot{index, generation_[index]}.Pack();
    ++live_;
    if (live_ > high_water_) high_water_ = live_;
    return t;
  }

  /// Returns `t`'s slot to the free list and invalidates every outstanding
  /// handle to it. `t` must be the live occupant of its slot.
  void Release(Transaction* t) {
    const TxnSlot slot = TxnSlot::Unpack(t->slab_handle());
    assert(Get(t->slab_handle()) == t && "releasing a stale transaction");
    assert(!t->holds_locks() && "the lock table points at this slot");
    ++generation_[slot.index];
    next_free_[slot.index] = free_head_;
    free_head_ = slot.index;
    --live_;
    ++released_;
  }

  /// Resolves a packed handle; nullptr when the slot has been released
  /// (and possibly reused) since the handle was minted.
  Transaction* Get(int64_t handle) {
    const TxnSlot slot = TxnSlot::Unpack(handle);
    if (slot.index >= generation_.size() ||
        generation_[slot.index] != slot.generation) {
      return nullptr;
    }
    return Slot(slot.index);
  }
  const Transaction* Get(int64_t handle) const {
    return const_cast<TxnSlab*>(this)->Get(handle);
  }

  /// Transactions currently occupying slots.
  int64_t live() const { return live_; }
  /// Largest number of simultaneously live transactions seen. Equals
  /// slots_created(): a new slot is cut only when the free list is empty.
  int64_t high_water() const { return high_water_; }
  /// Distinct slots ever created (the slab's memory footprint).
  int64_t slots_created() const { return slots_created_; }
  /// Slots released back to the free list over the run.
  int64_t released() const { return released_; }

 private:
  static constexpr uint32_t kChunkSize = 256;
  static constexpr uint32_t kChunkMask = kChunkSize - 1;
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  Transaction* Slot(uint32_t index) {
    return &chunks_[index / kChunkSize][index & kChunkMask];
  }

  std::vector<std::unique_ptr<Transaction[]>> chunks_;
  std::vector<uint32_t> generation_;  ///< per slot; bumped on Release
  std::vector<uint32_t> next_free_;   ///< free-list links (kNone = live/end)
  uint32_t free_head_ = kNone;
  int64_t slots_created_ = 0;
  int64_t live_ = 0;
  int64_t high_water_ = 0;
  int64_t released_ = 0;
};

}  // namespace unitdb

#endif  // UNIT_TXN_TXN_SLAB_H_
