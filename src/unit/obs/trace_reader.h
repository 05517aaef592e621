#ifndef UNIT_OBS_TRACE_READER_H_
#define UNIT_OBS_TRACE_READER_H_

#include <istream>
#include <string>
#include <vector>

#include "unit/common/status.h"
#include "unit/obs/trace_event.h"

namespace unitdb {

/// Parses one JSONL trace line (as produced by FormatJsonl) back into a
/// TraceEvent. Only accepts the flat {"key":value} shape this repo emits —
/// this is a trace reader, not a general JSON parser. Keys are read through
/// the writer's own schema (UNIT_TRACE_KEYS, obs/trace_event.h); a key
/// outside it is an error.
StatusOr<TraceEvent> ParseTraceLine(const std::string& line);

/// Reads every non-empty line of a JSONL stream. Fails on the first bad
/// line, reporting its 1-based line number.
StatusOr<std::vector<TraceEvent>> ReadTrace(std::istream& is);

/// Opens `path` and reads it with ReadTrace.
StatusOr<std::vector<TraceEvent>> ReadTraceFile(const std::string& path);

}  // namespace unitdb

#endif  // UNIT_OBS_TRACE_READER_H_
