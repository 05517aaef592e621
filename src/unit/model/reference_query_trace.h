#ifndef UNIT_MODEL_REFERENCE_QUERY_TRACE_H_
#define UNIT_MODEL_REFERENCE_QUERY_TRACE_H_

#include "unit/common/status.h"
#include "unit/workload/query_trace.h"
#include "unit/workload/spec.h"

namespace unitdb {

/// The query-trace generator's oracle (model/ holds the deliberately naive
/// copy of each idea): the cello-like trace of DESIGN.md §4 in two passes.
/// It draws every arrival into a vector, then each query's read set,
/// service demand and preference class, and only then the deadlines from
/// the bounds the whole trace fixes. GenerateQueryTrace and
/// MakeStreamingWorkload produce the same trace from one per-query stream
/// (workload/query_trace.cc); tests/workload/query_stream_test.cc pins both
/// to this, field by field. Fails on the parameters
/// ValidateQueryTraceParams rejects.
StatusOr<Workload> ReferenceGenerateQueryTrace(const QueryTraceParams& params);

}  // namespace unitdb

#endif  // UNIT_MODEL_REFERENCE_QUERY_TRACE_H_
