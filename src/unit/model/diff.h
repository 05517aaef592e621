#ifndef UNIT_MODEL_DIFF_H_
#define UNIT_MODEL_DIFF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "unit/common/status.h"
#include "unit/core/usm.h"
#include "unit/faults/scenario.h"
#include "unit/obs/timeseries.h"
#include "unit/sched/engine_context.h"
#include "unit/sched/metrics.h"
#include "unit/sim/server.h"
#include "unit/txn/outcome.h"
#include "unit/workload/spec.h"

namespace unitdb {

/// One differential-test input: everything needed to run the optimized
/// engine and the reference model on identical inputs. The observability
/// and fault pointers inside `engine` are ignored — the harness wires its
/// own series recorders and compiles `scenario` itself.
struct DiffCase {
  Workload workload;
  /// Fault scenario; empty() means no fault layer is attached at all.
  FaultScenarioSpec scenario;
  /// Run seed mixed into FaultSchedule::Compile (the replication seed).
  uint64_t workload_seed = 42;

  std::string policy = "unit";
  UsmWeights weights;
  /// Engine tunables, including the closed-loop dimension: a case runs with
  /// user sessions attached when `engine.session.sessions > 0` and with
  /// overload shedding when `engine.shed_watermark > 0`. The harness pins
  /// `engine.session.drop_retry_at` itself (see Perturbation::kDropRetry),
  /// so cases need not set it.
  EngineParams engine;
  PolicyOptions options;

  /// Run the *optimized* side with the query trace moved into a
  /// source-backed QuerySource instead of the workload's vector. The engine
  /// reads both through the same staged cursor, so this arm checks that a
  /// source-backed trace replays identically; the reference side always
  /// materializes it and pushes every arrival up front.
  bool stream_queries = false;

  /// Sharded-execution dimension (shard/sharded.h). 0 = the ordinary
  /// monolithic diff (optimized engine vs reference model). 1 = the sharded
  /// runner at shards=1 on the optimized side vs the monolithic reference
  /// model — pinning "sharding at N=1 is the identity", bit-for-bit. > 1 =
  /// the optimized sharded stack vs a reference-engine sharded stack
  /// (jobs=1), bit-for-bit at the merged parent level, plus the cross-shard
  /// USM accounting cross-checks (naive per-outcome enumeration over parent
  /// records, sub-query conservation).
  int shards = 0;
  /// Worker threads for the optimized sharded side (shards >= 1 only); the
  /// comparison must hold for any value.
  int shard_jobs = 1;

  /// Provenance for replay lines (filled by gen.h; -1 = hand-built case).
  uint64_t gen_seed = 0;
  int64_t gen_index = -1;
};

/// Intentional defect injected into the *optimized* side only, for harness
/// self-tests: a real divergence the differential comparison must catch.
enum class Perturbation {
  kNone = 0,
  /// Off-by-one C_flex adjustment step: admission control's TAC/LAC
  /// feedback tightens/loosens by 11% instead of 10%, so the admitted set
  /// drifts after the first control signal.
  kCFlexStep,
  /// Admission off-by-one: the optimized side's policy wrapper rejects one
  /// query the policy admitted (the 8th admitted query of the run). A
  /// guaranteed, policy-independent divergence for any case with enough
  /// queries — the robust self-test that shrinking has something to chew on.
  kAdmitOffByOne,
  /// Closed-loop retry drop: the optimized side's session layer silently
  /// discards the first retry decision of the run (the harness sets
  /// SessionParams::drop_retry_at = 1 on the optimized engine only), so one
  /// chain ends without a success or an abandon. Caught by the session
  /// conservation cross-check and, wherever the reference chain retries on,
  /// by per-query outcome divergence. Needs a case with sessions attached
  /// and at least one reject/miss; diff_fuzz forces sessions on for this
  /// perturbation.
  kDropRetry,
};

/// One resolved query, as a recorded engine run (RunRecorded) saw it. The
/// oracle compares `id` through `preference_class` field by field; the
/// sharded runner joins sub-queries into parents on `trace_id`, `arrival`
/// and `resolve_time`.
struct QueryRecord {
  TxnId id = kInvalidTxn;
  Outcome outcome = Outcome::kPending;
  double observed_freshness = 0.0;  ///< compared bit-for-bit
  SimTime commit_time = 0;
  int restarts = 0;
  int preference_class = 0;
  /// QueryRequest::id the transaction was built from (kInvalidTxn for
  /// fault-injected queries). Sharded diffs remap both sides' `id` to the
  /// parent trace position through this, so sub-query joins are compared
  /// parent-by-parent.
  TxnId trace_id = kInvalidTxn;
  SimTime arrival = 0;
  SimTime resolve_time = 0;  ///< simulated instant the query resolved
};

/// One side's full observable output.
struct DiffRun {
  RunMetrics metrics;
  std::vector<QueryRecord> queries;     ///< in resolution order
  std::vector<WindowSample> series;     ///< control-window telemetry
};

/// One recorded engine run, shared by both RunDiff sides and every shard of
/// RunSharded: builds `policy` by name, wraps it in a behavior-neutral
/// recording decorator (which vetoes the run's 8th admitted query when
/// `admit_off_by_one`, the Perturbation::kAdmitOffByOne defect), records
/// the window series when `record_series`, and runs `workload` on the naive
/// ReferenceEngine when `reference`, else on the optimized Engine. `engine`
/// is used as given, except that the run attaches its own series recorder.
/// Fails only on an unknown policy.
StatusOr<DiffRun> RunRecorded(const Workload& workload,
                              const std::string& policy,
                              const UsmWeights& weights,
                              const PolicyOptions& options,
                              EngineParams engine, bool reference,
                              bool admit_off_by_one, bool record_series);

struct DiffOptions {
  /// Also compare the per-window time series (bit-for-bit) and cross-check
  /// each window's USM decomposition against the naive re-derivation.
  bool compare_series = true;
  /// Defect injected into the optimized side (self-test support).
  Perturbation perturb = Perturbation::kNone;
  /// Cap on recorded divergence messages (the count is not capped).
  int max_divergence_messages = 8;
};

struct DiffResult {
  bool equivalent = false;
  int64_t divergence_count = 0;
  /// Human-readable "field: optimized=... reference=..." lines, capped at
  /// DiffOptions::max_divergence_messages.
  std::vector<std::string> divergences;
  DiffRun optimized;
  DiffRun reference;
};

/// Runs the optimized engine and the naive reference model on `c` and
/// compares the RunMetrics fields tagged kCompared (sched/metrics.h),
/// per-query outcomes, and (optionally) window series bit-for-bit. Fails
/// (Status) only on setup errors: unknown policy or a fault scenario that
/// does not compile against the workload.
StatusOr<DiffResult> RunDiff(const DiffCase& c, const DiffOptions& opts = {});

/// Compares every RunMetrics field tagged OracleRole::kCompared bit for bit,
/// counting each mismatch in `out` and recording it as "<field>[.<part>]:
/// optimized=... reference=...". Telemetry and obs fields are skipped.
void DiffMetrics(const RunMetrics& optimized, const RunMetrics& reference,
                 const DiffOptions& opts, DiffResult* out);

/// Compares two window series field by field ("series.size", then
/// "series[i].<field>[.<part>]"), bit for bit.
void DiffSeries(const std::vector<WindowSample>& optimized,
                const std::vector<WindowSample>& reference,
                const DiffOptions& opts, DiffResult* out);

/// ddmin-lite shrink: repeatedly halves the query-arrival list and the
/// fault list (and finally tries dropping the fault layer whole) while the
/// case still diverges under `opts`. Returns the smallest still-failing
/// case found; returns `c` unchanged if it does not diverge. Deterministic.
DiffCase ShrinkCase(const DiffCase& c, const DiffOptions& opts = {});

/// One-line replayable description: "seed=S case=I policy=P
/// discipline=edf|fcfs faults=0|1 stream=0|1 shards=K sjobs=J sessions=N
/// shed=W cache=C queries=N fault_windows=F" — paste the seed/case pair into
/// tools/diff_fuzz to reproduce.
std::string DescribeCase(const DiffCase& c);

}  // namespace unitdb

#endif  // UNIT_MODEL_DIFF_H_
