#include "unit/sched/event_queue.h"

#include <algorithm>

namespace unitdb {

void EventQueue::Push(SimTime time, EventType type, int64_t payload) {
  events_.push_back(Event{time, next_seq_++, type, payload});
  std::push_heap(events_.begin(), events_.end(), Later{});
}

Event EventQueue::Pop() {
  std::pop_heap(events_.begin(), events_.end(), Later{});
  Event e = events_.back();
  events_.pop_back();
  return e;
}

}  // namespace unitdb
