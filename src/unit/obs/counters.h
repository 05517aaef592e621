#ifndef UNIT_OBS_COUNTERS_H_
#define UNIT_OBS_COUNTERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace unitdb {

/// Named counter registry for the observability layer. Components register
/// a counter once (Counter returns a stable reference — std::map nodes
/// never move) and bump it through the reference on the hot path, so
/// steady-state emission costs one increment and zero lookups/allocations.
/// The trace sinks write it (`sink.jsonl.*`, `sink.ring.*`); Engine::Run
/// snapshots it into RunMetrics::obs_counters at the end of a run.
///
/// Nothing registers anything unless a sink is attached, so a run with
/// tracing off leaves the registry — and the snapshot — empty; the
/// trace-off overhead test keys off exactly that.
class CounterRegistry {
 public:
  /// Monotonic int64 counter; created zero-initialized on first use.
  int64_t& Counter(const std::string& name);

  /// Value lookup for tests/reporting; 0 when absent.
  int64_t CounterValue(const std::string& name) const;

  bool empty() const { return counters_.empty(); }

  /// Sorted (name, value) snapshot.
  std::vector<std::pair<std::string, int64_t>> CounterSnapshot() const;

 private:
  std::map<std::string, int64_t> counters_;
};

}  // namespace unitdb

#endif  // UNIT_OBS_COUNTERS_H_
