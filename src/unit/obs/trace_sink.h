#ifndef UNIT_OBS_TRACE_SINK_H_
#define UNIT_OBS_TRACE_SINK_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "unit/common/status.h"
#include "unit/obs/trace_event.h"

namespace unitdb {

/// Destination for engine trace events (EngineParams::trace). Emission is
/// synchronous on the simulation thread; sinks must not call back into the
/// engine. Implementations are expected to be allocation-free per event so
/// that tracing perturbs timing, not behavior.
class TraceSink {
 public:
  virtual ~TraceSink();
  virtual void Emit(const TraceEvent& e) = 0;
  virtual void Flush() {}
};

/// Writes one JSON object per event (JSONL) to a stream or file. Formats
/// into a fixed stack buffer — no per-event allocation.
class JsonlTraceSink : public TraceSink {
 public:
  /// Non-owning stream variant (tests, stringstream goldens).
  explicit JsonlTraceSink(std::ostream& os);

  /// Opens `path` for writing (truncating); fails on I/O error.
  static StatusOr<std::unique_ptr<JsonlTraceSink>> Open(
      const std::string& path);

  void Emit(const TraceEvent& e) override;
  void Flush() override;

  int64_t emitted() const { return emitted_; }

 private:
  std::unique_ptr<std::ofstream> owned_;  ///< set by Open
  std::ostream* os_;
  int64_t emitted_ = 0;
};

/// The in-memory sink: keeps the events of `types` (every type when empty)
/// in emission order, and hands every event on to `next` (may be null).
/// ObsOptions::events and each shard of RunSharded keep their events here.
/// Keeping allocates as the vector grows.
class KeepingSink : public TraceSink {
 public:
  explicit KeepingSink(std::vector<TraceEventType> types = {},
                       TraceSink* next = nullptr);

  void Emit(const TraceEvent& e) override;
  void Flush() override;

  std::vector<TraceEvent> kept;

 private:
  std::vector<TraceEventType> types_;
  TraceSink* next_;
};

}  // namespace unitdb

#endif  // UNIT_OBS_TRACE_SINK_H_
