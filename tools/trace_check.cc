// Replays JSONL run traces (EngineParams::trace / ObsOptions::trace_path,
// or a sharded run's shard<k>.jsonl) and validates the engine's observable
// invariants: per-query lifecycle (every admit reaches exactly one terminal
// outcome), Eq. 1 freshness accounting (freshness = 1/(1 + Udrop), success
// iff freshness meets the requirement), the Fig. 2 dominant-penalty rule
// behind every LBC signal, and update/period-change sanity. CI pipes
// freshly generated traces through this binary. A sharded run's
// merged.jsonl is for reading only: txn ids repeat across its shards, so
// invariant 2 fails on it.
//
// Usage: trace_check FILE [FILE...]
//
// Exit codes (distinct per violated invariant; see obs/trace_check.h):
//   0    every invariant holds in every file
//   1-8  number of the lowest violated invariant across all files
//          1 timestamps non-decreasing
//          2 per-query lifecycle
//          3 Eq. 1 freshness accounting
//          4 LBC dominant-penalty rule / knob movement
//          5 update & period-change sanity
//          6 fault-window pairing & response direction
//          7 closed-loop session discipline (retry pairing, backoff
//            monotonicity, shed watermark)
//          8 result-cache discipline (hit freshness/Udrop vs the item's
//            update history, active capacity, invalidate pairing)
//   9    trace file unreadable or parse error (a key outside the schema)
//   64   usage error

#include <cstdio>

#include "unit/obs/trace_check.h"
#include "unit/obs/trace_reader.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s FILE [FILE...]\n", argv[0]);
    return 64;
  }
  int worst_invariant = 0;  // lowest violated invariant number, 0 = none
  bool read_error = false;
  for (int i = 1; i < argc; ++i) {
    auto events = unitdb::ReadTraceFile(argv[i]);
    if (!events.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[i],
                   events.status().ToString().c_str());
      read_error = true;
      continue;
    }
    const unitdb::TraceCheckResult result = unitdb::CheckTrace(*events);
    std::printf("%s: %s\n", argv[i],
                unitdb::TraceCheckSummary(result).c_str());
    const int code = unitdb::TraceCheckExitCode(result);
    if (code > 0 && (worst_invariant == 0 || code < worst_invariant)) {
      worst_invariant = code;
    }
  }
  if (worst_invariant > 0) return worst_invariant;
  return read_error ? 9 : 0;
}
