#ifndef UNIT_WORKLOAD_QUERY_SOURCE_H_
#define UNIT_WORKLOAD_QUERY_SOURCE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "unit/common/status.h"
#include "unit/workload/query_trace.h"
#include "unit/workload/spec.h"

namespace unitdb {

/// Forward-only iterator over a query trace. Queries come out in trace
/// order, with non-decreasing arrivals, carrying the trace's request ids:
/// positions 0, 1, 2, ... for generated traces, parent-trace positions for
/// shard sub-traces (shard/sharded.h), and whatever ids a hand-built or
/// loaded trace carries. `Next` reuses `out`'s storage, so a consumer
/// holding one QueryRequest buffer streams an arbitrarily long trace in
/// O(1) memory.
class QueryCursor {
 public:
  virtual ~QueryCursor() = default;

  /// Fills `*out` with the next query; returns false at end of trace.
  virtual bool Next(QueryRequest* out) = 0;
};

/// Cursor over a materialized query vector, which must outlive it: copies
/// one query per Next and nothing up front.
class VectorCursor final : public QueryCursor {
 public:
  explicit VectorCursor(const std::vector<QueryRequest>* queries)
      : queries_(queries) {}

  bool Next(QueryRequest* out) override {
    if (next_ >= queries_->size()) return false;
    *out = (*queries_)[next_++];
    return true;
  }

 private:
  const std::vector<QueryRequest>* queries_;
  size_t next_ = 0;
};

/// A replayable query trace the engine can consume without materializing it:
/// the polymorphic query side of a Workload. `NewCursor` starts a fresh
/// deterministic replay — every cursor of one source yields the identical
/// sequence.
class QuerySource {
 public:
  virtual ~QuerySource() = default;

  /// Exact number of queries every cursor will yield.
  virtual int64_t count() const = 0;

  virtual std::unique_ptr<QueryCursor> NewCursor() const = 0;
};

/// QuerySource over an owned materialized vector: adapts any pre-built query
/// list (hand-written, generated, or shrunk) to the streaming interface so
/// the differential harness can replay identical inputs through both paths.
class VectorQuerySource final : public QuerySource {
 public:
  explicit VectorQuerySource(std::vector<QueryRequest> queries)
      : queries_(std::move(queries)) {}

  int64_t count() const override {
    return static_cast<int64_t>(queries_.size());
  }
  std::unique_ptr<QueryCursor> NewCursor() const override {
    return std::make_unique<VectorCursor>(&queries_);
  }

 private:
  std::vector<QueryRequest> queries_;
};

/// Builds a workload whose query side streams on demand from the one query
/// generator (workload/query_trace.cc): num_items and duration as
/// GenerateQueryTrace sets them, the name "cello-like (streamed)", empty
/// `queries`, and a `query_source` yielding GenerateQueryTrace's trace.
/// Fails on the parameters ValidateQueryTraceParams rejects. Attach updates
/// with GenerateUpdateTrace as usual (a correlated distribution reads the
/// stream once for access counts).
StatusOr<Workload> MakeStreamingWorkload(const QueryTraceParams& params);

/// Moves `w.queries` into a VectorQuerySource attached as `w.query_source`,
/// leaving `queries` empty: any materialized workload replayed through the
/// streaming engine path (the differential harness's stream configurations).
void ConvertToStreamingWorkload(Workload* w);

}  // namespace unitdb

#endif  // UNIT_WORKLOAD_QUERY_SOURCE_H_
