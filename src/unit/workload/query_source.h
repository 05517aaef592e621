#ifndef UNIT_WORKLOAD_QUERY_SOURCE_H_
#define UNIT_WORKLOAD_QUERY_SOURCE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "unit/common/rng.h"
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
  std::unique_ptr<QueryCursor> NewCursor() const override;

 private:
  std::vector<QueryRequest> queries_;
};

/// Whole-trace properties the streaming generator needs before the first
/// query: GenerateQueryTrace draws each deadline from Uniform[lo, hi] where
/// lo/hi derive from the mean and max execution time over the *entire*
/// trace. CalibrateQueryStream recovers them in O(1) memory by replaying
/// clones of the arrival and execution RNG streams (same draw and
/// floating-point accumulation order as the materialized generator, so the
/// bounds are bit-identical).
struct QueryStreamCalibration {
  int64_t count = 0;          ///< total arrivals in [0, duration)
  double deadline_lo_ms = 0;  ///< lo_factor * mean exec (ms)
  double deadline_hi_ms = 0;  ///< max(lo + 1e-9, hi_factor * max exec) (ms)
};

/// Computes the calibration for `params` (already-validated parameters).
QueryStreamCalibration CalibrateQueryStream(const QueryTraceParams& params);

/// Streaming twin of GenerateQueryTrace (workload/query_trace.cc): yields
/// the same MMPP arrivals, Zipf/working-set read sets, lognormal service
/// demands, and uniform deadlines bit-for-bit, one query at a time, from
/// O(working_set_size) state. The materialized generator stays the oracle —
/// tests/workload/query_stream_test.cc pins prefix identity for both.
class QueryStream final : public QueryCursor {
 public:
  QueryStream(const QueryTraceParams& params,
              const QueryStreamCalibration& calibration);

  bool Next(QueryRequest* out) override;

 private:
  ItemId DrawItem();
  void Touch(ItemId item);
  /// Advances the MMPP to the next arrival; false when the horizon is hit.
  bool NextArrival(SimTime* arrival);

  const QueryTraceParams params_;
  const QueryStreamCalibration calibration_;
  Rng arrival_rng_;
  Rng item_rng_;
  Rng exec_rng_;
  Rng deadline_rng_;
  ZipfSampler zipf_;
  std::vector<ItemId> working_set_;
  size_t ws_cursor_ = 0;
  bool in_burst_ = false;
  double t_s_ = 0.0;
  double state_end_s_ = 0.0;
  double horizon_s_ = 0.0;
  double exec_mu_ = 0.0;
  int64_t index_ = 0;
};

/// QuerySource producing QueryStream cursors: validates and calibrates once,
/// then every cursor replays the identical trace.
class StreamingQuerySource final : public QuerySource {
 public:
  /// Fails on the same parameter errors as GenerateQueryTrace.
  static StatusOr<std::shared_ptr<const StreamingQuerySource>> Make(
      const QueryTraceParams& params);

  int64_t count() const override { return calibration_.count; }
  std::unique_ptr<QueryCursor> NewCursor() const override;

  const QueryTraceParams& params() const { return params_; }
  const QueryStreamCalibration& calibration() const { return calibration_; }

 private:
  StreamingQuerySource(const QueryTraceParams& params,
                       const QueryStreamCalibration& calibration)
      : params_(params), calibration_(calibration) {}

  QueryTraceParams params_;
  QueryStreamCalibration calibration_;
};

/// Builds a workload whose query side streams on demand: num_items /
/// duration / trace name are set as GenerateQueryTrace would, `queries`
/// stays empty, and `query_source` yields the identical trace. Attach
/// updates with GenerateUpdateTrace as usual (correlated distributions make
/// one calibration pass over the stream for access counts).
StatusOr<Workload> MakeStreamingWorkload(const QueryTraceParams& params);

/// Moves `w.queries` into a VectorQuerySource attached as `w.query_source`,
/// leaving `queries` empty: any materialized workload replayed through the
/// streaming engine path (the differential harness's stream configurations).
void ConvertToStreamingWorkload(Workload* w);

}  // namespace unitdb

#endif  // UNIT_WORKLOAD_QUERY_SOURCE_H_
