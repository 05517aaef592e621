#ifndef UNIT_SCHED_EVENT_QUEUE_H_
#define UNIT_SCHED_EVENT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "unit/common/types.h"

namespace unitdb {

/// Kinds of events the discrete-event engines process. Engine keeps its
/// staged trace arrival and its running transaction's completion outside
/// the queue, so it pushes neither kQueryArrival nor kCompletion; the
/// reference engine pushes both.
enum class EventType {
  kQueryArrival = 0,   ///< payload: position in the workload's query trace
  kUpdateArrival,      ///< payload: item id
  kCompletion,         ///< payload: txn id
  kQueryDeadline,      ///< payload: txn slab handle (Engine) or txn id
                       ///< (ReferenceEngine); firm-deadline expiry
  kControlTick,        ///< periodic policy/monitoring tick
  kFaultEdge,          ///< payload: index into the fault schedule's edges
  kFaultQueryArrival,  ///< payload: index into the injected query list
  kFaultUpdateArrival, ///< payload: index into the injected update list
  kClientResubmit,     ///< payload: trace id of the retried request (Engine);
                       ///< index into the resubmit list (ReferenceEngine)
};

/// One scheduled event. `seq` breaks time ties deterministically in FIFO
/// order (events scheduled earlier fire earlier at equal timestamps).
struct Event {
  SimTime time = 0;
  uint64_t seq = 0;
  EventType type = EventType::kControlTick;
  int64_t payload = 0;  ///< txn handle, item id, or index per type
};

/// Deterministic min-heap of events ordered by (time, seq), with lazy
/// cancellation support: the engine tombstones events whose handler would
/// no-op (a query resolved before its deadline event) and periodically
/// compacts the heap so dead events stop paying O(log n) sift costs on
/// heavy update traces.
class EventQueue {
 public:
  /// Out of line (event_queue.cc) on purpose: the inlined push_heap body is
  /// several hundred bytes, and letting the compiler splice it into every
  /// engine handler measurably slows the event loop (icache pressure).
  void Push(SimTime time, EventType type, int64_t payload);

  /// Takes the next FIFO sequence without pushing an event: the engine
  /// orders its running transaction's completion against the queue by the
  /// sequence a push at dispatch would have had.
  uint64_t TakeSeq() { return next_seq_++; }

  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }

  const Event& Top() const { return events_.front(); }

  /// Out of line like Push, and for the same reason: pop_heap's sift-down
  /// is the other several-hundred-byte heap body, and the engine's Run loop
  /// calls it once per event right next to every inlined handler.
  Event Pop();

  // --- lazy cancellation ---

  /// Records that one scheduled event became a tombstone (its handler will
  /// no-op when popped). The event itself stays in the heap until the owner
  /// compacts; correctness never depends on compaction happening.
  void NoteCancelled() { ++cancelled_; }

  /// Tombstones recorded since the last compaction.
  size_t cancelled() const { return cancelled_; }

  /// Whether enough tombstones accumulated to be worth a compaction pass:
  /// more than kCompactMinDead dead events and at least half the heap.
  bool ShouldCompact() const {
    return cancelled_ > kCompactMinDead && cancelled_ * 2 > events_.size();
  }

  /// Removes every event for which `dead(event)` is true and re-heapifies
  /// in O(n). Survivors keep their sequence numbers, so the pop order of
  /// live events — and therefore the simulation — is unchanged. Returns the
  /// number of events removed.
  template <typename Pred>
  size_t CompactIf(Pred&& dead) {
    const auto live_end = std::remove_if(events_.begin(), events_.end(), dead);
    const size_t removed = static_cast<size_t>(events_.end() - live_end);
    events_.erase(live_end, events_.end());
    std::make_heap(events_.begin(), events_.end(), Later{});
    cancelled_ = 0;
    return removed;
  }

  static constexpr size_t kCompactMinDead = 64;

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Event> events_;  ///< binary heap under Later
  uint64_t next_seq_ = 0;
  size_t cancelled_ = 0;
};

}  // namespace unitdb

#endif  // UNIT_SCHED_EVENT_QUEUE_H_
