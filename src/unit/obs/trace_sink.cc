#include "unit/obs/trace_sink.h"

#include <algorithm>
#include <utility>

namespace unitdb {

TraceSink::~TraceSink() = default;

// --- JsonlTraceSink -------------------------------------------------------

JsonlTraceSink::JsonlTraceSink(std::ostream& os) : os_(&os) {}

StatusOr<std::unique_ptr<JsonlTraceSink>> JsonlTraceSink::Open(
    const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path, std::ios::trunc);
  if (!file->is_open()) {
    return Status(StatusCode::kIoError, "cannot open trace file " + path);
  }
  auto sink = std::make_unique<JsonlTraceSink>(*file);
  sink->owned_ = std::move(file);
  return sink;
}

void JsonlTraceSink::Emit(const TraceEvent& e) {
  char line[640];
  const size_t n = FormatJsonl(e, line, sizeof(line));
  os_->write(line, static_cast<std::streamsize>(n));
  os_->put('\n');
  ++emitted_;
}

void JsonlTraceSink::Flush() { os_->flush(); }

// --- KeepingSink ----------------------------------------------------------

KeepingSink::KeepingSink(std::vector<TraceEventType> types, TraceSink* next)
    : types_(std::move(types)), next_(next) {}

void KeepingSink::Emit(const TraceEvent& e) {
  if (types_.empty() ||
      std::find(types_.begin(), types_.end(), e.type) != types_.end()) {
    kept.push_back(e);
  }
  if (next_ != nullptr) next_->Emit(e);
}

void KeepingSink::Flush() {
  if (next_ != nullptr) next_->Flush();
}

}  // namespace unitdb
