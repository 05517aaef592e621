#ifndef UNIT_WORKLOAD_TRACE_IO_H_
#define UNIT_WORKLOAD_TRACE_IO_H_

#include <string>

#include "unit/common/status.h"
#include "unit/workload/spec.h"

namespace unitdb {

/// Serializes a workload (queries + update sources) to a CSV document so
/// experiments can be archived and replayed bit-exactly. Queries are read
/// through the workload's cursor, so a streamed trace writes the same rows
/// as its materialized twin. Row format:
///   M,<num_items>,<duration_us>,<query_trace_name>,<update_trace_name>
///   Q,<id>,<arrival_us>,<exec_us>,<deadline_us>,<freshness_req>,<i1;i2;...>[,<pref_class>]
///   U,<item>,<ideal_period_us>,<exec_us>,<phase_us>
std::string WorkloadToCsv(const Workload& workload);

/// Parses a document produced by WorkloadToCsv. Fails with
/// INVALID_ARGUMENT, naming the row, on anything the engine cannot replay:
/// an M row whose duration is not positive; a Q row whose arrival is
/// negative or precedes the previous row's (the engine replays queries in
/// row order), whose exec or deadline is below one tick, whose freshness
/// lies outside [0, 1], whose class lies outside
/// [0, kMaxPreferenceClasses), or which reads an item outside
/// [0, num_items); and U rows the database refuses as update sources.
StatusOr<Workload> WorkloadFromCsv(const std::string& text);

/// Convenience file round-trips.
Status SaveWorkload(const Workload& workload, const std::string& path);
StatusOr<Workload> LoadWorkload(const std::string& path);

}  // namespace unitdb

#endif  // UNIT_WORKLOAD_TRACE_IO_H_
