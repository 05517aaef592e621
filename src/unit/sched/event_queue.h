#ifndef UNIT_SCHED_EVENT_QUEUE_H_
#define UNIT_SCHED_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "unit/common/types.h"

namespace unitdb {

/// Kinds of events the discrete-event engines process. Engine keeps its
/// staged trace arrival, its running transaction's completion and its
/// queries' deadlines outside the queue, so it pushes none of
/// kQueryArrival, kCompletion and kQueryDeadline; the reference engine
/// pushes all three.
enum class EventType {
  kQueryArrival = 0,   ///< payload: position in the workload's query trace
  kUpdateArrival,      ///< payload: item id
  kCompletion,         ///< payload: txn id
  kQueryDeadline,      ///< payload: txn id; firm-deadline expiry
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
  int64_t payload = 0;  ///< item id, trace id or index per type
};

/// Deterministic min-heap of events ordered by (time, seq). Every event in
/// it fires: nothing the engine pushes is ever cancelled.
class EventQueue {
 public:
  /// Out of line (event_queue.cc) on purpose: the inlined push_heap body is
  /// several hundred bytes, and letting the compiler splice it into every
  /// engine handler measurably slows the event loop (icache pressure).
  void Push(SimTime time, EventType type, int64_t payload);

  /// Takes the next FIFO sequence without pushing an event: the engine
  /// orders its running transaction's completion and each admitted query's
  /// deadline against the queue by the sequence a push would have had.
  uint64_t TakeSeq() { return next_seq_++; }

  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }

  const Event& Top() const { return events_.front(); }

  /// Out of line like Push, and for the same reason: pop_heap's sift-down
  /// is the other several-hundred-byte heap body, and the engine's Run loop
  /// calls it once per event right next to every inlined handler.
  Event Pop();

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Event> events_;  ///< binary heap under Later
  uint64_t next_seq_ = 0;
};

}  // namespace unitdb

#endif  // UNIT_SCHED_EVENT_QUEUE_H_
