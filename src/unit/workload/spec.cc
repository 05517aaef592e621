#include "unit/workload/spec.h"

#include <utility>

#include "unit/workload/query_source.h"

namespace unitdb {

int64_t Workload::QueryCount() const {
  if (query_source) return query_source->count();
  return static_cast<int64_t>(queries.size());
}

std::unique_ptr<QueryCursor> Workload::NewQueryCursor() const {
  if (query_source) return query_source->NewCursor();
  return std::make_unique<VectorCursor>(&queries);
}

double Workload::QueryUtilization() const {
  if (duration <= 0) return 0.0;
  double busy = 0.0;
  QueryRequest q;
  auto cursor = NewQueryCursor();
  while (cursor->Next(&q)) busy += static_cast<double>(q.exec);
  return busy / static_cast<double>(duration);
}

std::vector<int64_t> Workload::QueryAccessCounts() const {
  std::vector<int64_t> counts(num_items, 0);
  QueryRequest q;
  auto cursor = NewQueryCursor();
  while (cursor->Next(&q)) {
    for (ItemId it : q.items) ++counts[it];
  }
  return counts;
}

void ConvertToStreamingWorkload(Workload* w) {
  w->query_source =
      std::make_shared<VectorQuerySource>(std::move(w->queries));
  w->queries.clear();
}

}  // namespace unitdb
