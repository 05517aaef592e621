#include "unit/model/diff.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "unit/core/policy.h"
#include "unit/faults/schedule.h"
#include "unit/model/reference_engine.h"
#include "unit/model/reference_usm.h"
#include "unit/sched/engine.h"
#include "unit/shard/sharded.h"
#include "unit/workload/query_source.h"

namespace unitdb {
namespace {

/// Tolerance for the naive-USM cross-checks (different floating-point
/// accumulation orders; everything else is compared bit-for-bit).
constexpr double kUsmEps = 1e-9;

/// Forwards every hook to the wrapped policy and records one QueryRecord per
/// resolved query. Wrapping is behavior-neutral, so a recorded run is
/// bit-identical to a bare one; `admit_off_by_one` injects the
/// kAdmitOffByOne defect for self-tests.
class RecordingPolicy final : public Policy {
 public:
  RecordingPolicy(Policy* inner, bool admit_off_by_one)
      : inner_(inner), admit_off_by_one_(admit_off_by_one) {}

  std::string name() const override { return inner_->name(); }
  void Attach(EngineContext& engine) override { inner_->Attach(engine); }

  bool AdmitQuery(EngineContext& engine, const Transaction& query) override {
    const bool admit = inner_->AdmitQuery(engine, query);
    if (admit && admit_off_by_one_ && ++admitted_ == 8) {
      return false;  // the injected defect: shed one admitted query
    }
    return admit;
  }

  bool BeforeQueryDispatch(EngineContext& engine,
                           Transaction& query) override {
    return inner_->BeforeQueryDispatch(engine, query);
  }

  void OnQueryResolved(EngineContext& engine, const Transaction& query,
                       Outcome outcome) override {
    QueryRecord r;
    r.id = query.id();
    r.outcome = outcome;
    r.observed_freshness = query.observed_freshness();
    r.commit_time = query.commit_time();
    r.restarts = query.restarts();
    r.preference_class = query.preference_class();
    r.trace_id = query.trace_id();
    r.arrival = query.arrival();
    r.resolve_time = engine.now();
    records.push_back(r);
    inner_->OnQueryResolved(engine, query, outcome);
  }

  void OnUpdateCommit(EngineContext& engine,
                      const Transaction& update) override {
    inner_->OnUpdateCommit(engine, update);
  }

  void OnUpdateSourceArrival(EngineContext& engine, ItemId item) override {
    inner_->OnUpdateSourceArrival(engine, item);
  }

  void OnControlTick(EngineContext& engine) override {
    inner_->OnControlTick(engine);
  }

  double AdmissionKnob() const override { return inner_->AdmissionKnob(); }
  bool UsesPeriodicUpdates() const override {
    return inner_->UsesPeriodicUpdates();
  }

  std::vector<QueryRecord> records;

 private:
  Policy* inner_;
  bool admit_off_by_one_;
  int admitted_ = 0;
};

PolicyOptions PerturbedOptions(const PolicyOptions& options,
                               Perturbation perturb) {
  PolicyOptions out = options;
  if (perturb == Perturbation::kCFlexStep) {
    out.unit.admission.adjust_step += 0.01;
  }
  return out;
}

/// One side of a monolithic diff run on `w`: the case's tunables with its
/// compiled `faults`, no caller observability hooks, and every perturbation
/// on the optimized side only.
StatusOr<DiffRun> RunSide(const DiffCase& c, const Workload& w,
                          const FaultSchedule* faults, const DiffOptions& opts,
                          bool reference) {
  const Perturbation perturb = reference ? Perturbation::kNone : opts.perturb;
  EngineParams params = c.engine;
  params.trace = nullptr;
  params.counters = nullptr;
  params.faults = faults;
  params.session.drop_retry_at = perturb == Perturbation::kDropRetry ? 1 : 0;
  return RunRecorded(w, c.policy, c.weights,
                     PerturbedOptions(c.options, perturb), params, reference,
                     perturb == Perturbation::kAdmitOffByOne,
                     opts.compare_series);
}

bool BitEqual(double a, double b) {
  uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof(a));
  std::memcpy(&y, &b, sizeof(b));
  return x == y;
}

class Comparer {
 public:
  Comparer(DiffResult* result, const DiffOptions& opts)
      : result_(result), opts_(opts) {}

  template <typename T>
  void Eq(const std::string& field, const T& a, const T& b) {
    if (a == b) return;
    std::ostringstream os;
    os << field << ": optimized=" << a << " reference=" << b;
    Mismatch(os.str());
  }

  void EqBits(const std::string& field, double a, double b) {
    if (BitEqual(a, b)) return;
    std::ostringstream os;
    os.precision(17);
    os << field << ": optimized=" << a << " reference=" << b;
    Mismatch(os.str());
  }

  void Near(const std::string& field, double a, double b, double eps) {
    if (std::abs(a - b) <= eps) return;
    std::ostringstream os;
    os.precision(17);
    os << field << ": value=" << a << " naive-model=" << b;
    Mismatch(os.str());
  }

  void Mismatch(std::string msg) {
    ++result_->divergence_count;
    if (static_cast<int>(result_->divergences.size()) <
        opts_.max_divergence_messages) {
      result_->divergences.push_back(std::move(msg));
    }
  }

  /// Compares one table field, recursing into vectors ("name.size", then
  /// "name[i]") and into structs with a field table ("name.member").
  /// Doubles compare bit for bit.
  template <typename T>
  void Field(const std::string& name, const T& a, const T& b) {
    if constexpr (std::is_floating_point_v<T>) {
      EqBits(name, a, b);
    } else if constexpr (std::is_integral_v<T>) {
      Eq(name, a, b);
    } else if constexpr (std::is_same_v<T, RunningStat>) {
      Eq(name + ".count", a.count(), b.count());
      EqBits(name + ".sum", a.sum(), b.sum());
      EqBits(name + ".mean", a.mean(), b.mean());
      EqBits(name + ".variance", a.variance(), b.variance());
      EqBits(name + ".min", a.min(), b.min());
      EqBits(name + ".max", a.max(), b.max());
    } else if constexpr (std::is_same_v<T, WindowSample>) {
      ForEachWindowSampleField([&]<typename F>(F field) {
        Field(name + "." + field.name, a.*F::member, b.*F::member);
      });
    } else if constexpr (requires { a.size(); }) {
      Eq(name + ".size", a.size(), b.size());
      for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        Field(name + "[" + std::to_string(i) + "]", a[i], b[i]);
      }
    } else {
      for (const auto& f : FieldsOf(a)) {
        Field(name + "." + f.name, a.*f.member, b.*f.member);
      }
    }
  }

 private:
  DiffResult* result_;
  const DiffOptions& opts_;
};

std::string Idx(const char* base, size_t i, const char* field) {
  std::ostringstream os;
  os << base << "[" << i << "]." << field;
  return os.str();
}

void Compare(const DiffCase& c, const DiffOptions& opts, DiffResult* out) {
  Comparer cmp(out, opts);
  const RunMetrics& a = out->optimized.metrics;
  const RunMetrics& b = out->reference.metrics;
  DiffMetrics(a, b, opts, out);

  // Closed-loop conservation: every session request resolves to exactly one
  // terminal outcome, and no chain retries past its budget. Checked on each
  // side independently so a defect that silently drops a chain (the
  // kDropRetry self-test) is caught even where the sides happen to agree.
  if (c.engine.session.sessions > 0) {
    const auto conservation = [&cmp](const char* side, const RunMetrics& m,
                                     int max_retries) {
      if (m.session_requests != m.session_successes + m.session_abandons) {
        std::ostringstream os;
        os << "session.conservation(" << side
           << "): requests=" << m.session_requests
           << " != successes=" << m.session_successes
           << " + abandons=" << m.session_abandons;
        cmp.Mismatch(os.str());
      }
      const int64_t bound =
          m.session_requests * static_cast<int64_t>(max_retries);
      if (m.session_retries > bound) {
        std::ostringstream os;
        os << "session.retry_bound(" << side
           << "): retries=" << m.session_retries
           << " > requests*max_retries=" << bound;
        cmp.Mismatch(os.str());
      }
    };
    conservation("optimized", a, c.engine.session.max_retries);
    conservation("reference", b, c.engine.session.max_retries);
  }

  // Per-query outcomes, in resolution order.
  cmp.Eq("queries.size", out->optimized.queries.size(),
         out->reference.queries.size());
  const size_t nq =
      std::min(out->optimized.queries.size(), out->reference.queries.size());
  for (size_t i = 0; i < nq; ++i) {
    const QueryRecord& qa = out->optimized.queries[i];
    const QueryRecord& qb = out->reference.queries[i];
    cmp.Eq(Idx("queries", i, "id"), qa.id, qb.id);
    cmp.Eq(Idx("queries", i, "outcome"), static_cast<int>(qa.outcome),
           static_cast<int>(qb.outcome));
    cmp.EqBits(Idx("queries", i, "observed_freshness"),
               qa.observed_freshness, qb.observed_freshness);
    cmp.Eq(Idx("queries", i, "commit_time"), qa.commit_time, qb.commit_time);
    cmp.Eq(Idx("queries", i, "restarts"), qa.restarts, qb.restarts);
    cmp.Eq(Idx("queries", i, "preference_class"), qa.preference_class,
           qb.preference_class);
  }

  // Window series, bit-for-bit, plus the naive per-window USM cross-check.
  if (opts.compare_series) {
    DiffSeries(out->optimized.series, out->reference.series, opts, out);
    for (size_t i = 0; i < out->reference.series.size(); ++i) {
      // Cross-check the recorder's Eq. 5 decomposition against the naive
      // one-at-a-time accumulation (tolerance: accumulation-order error).
      const WindowSample& sb = out->reference.series[i];
      const UsmBreakdown naive =
          ReferenceUsmDecompose(sb.window, c.weights);
      cmp.Near(Idx("series", i, "usm.s(naive)"), sb.usm.s, naive.s, kUsmEps);
      cmp.Near(Idx("series", i, "usm.r(naive)"), sb.usm.r, naive.r, kUsmEps);
      cmp.Near(Idx("series", i, "usm.fm(naive)"), sb.usm.fm, naive.fm,
               kUsmEps);
      cmp.Near(Idx("series", i, "usm.fs(naive)"), sb.usm.fs, naive.fs,
               kUsmEps);
    }
  }

  // Final-USM cross-check: the production counter formulas against the
  // naive per-outcome enumeration over the reference side's query records.
  std::vector<Outcome> outcomes;
  outcomes.reserve(out->reference.queries.size());
  for (const QueryRecord& q : out->reference.queries) {
    outcomes.push_back(q.outcome);
  }
  const double scale =
      1.0 + static_cast<double>(out->reference.queries.size());
  cmp.Near("usm_total(naive)", UsmTotal(a.counts, c.weights),
           ReferenceUsmTotalFromOutcomes(outcomes, c.weights),
           kUsmEps * scale);
  cmp.Near("usm_average(naive)", UsmAverage(a.counts, c.weights),
           ReferenceUsmAverage(b.counts, c.weights), kUsmEps * scale);
  cmp.Near("usm_average_multi(naive)",
           UsmAverageMulti(a.per_class_counts, {c.weights}),
           ReferenceUsmAverageMulti(b.per_class_counts, {c.weights}),
           kUsmEps * scale);
}

bool Diverges(const DiffCase& c, const DiffOptions& opts) {
  DiffOptions quiet = opts;
  quiet.max_divergence_messages = 0;
  StatusOr<DiffResult> r = RunDiff(c, quiet);
  return r.ok() && !r->equivalent;
}

/// Converts one side of a sharded run into the DiffRun shape the shared
/// Compare understands. Record `id` carries the parent trace position
/// (kInvalidTxn for fault-injected parents), so both sides join on parents.
DiffRun ShardedToDiffRun(ShardedResult&& r) {
  DiffRun run;
  run.metrics = std::move(r.metrics);
  run.queries.reserve(r.queries.size());
  for (const ShardQueryRecord& q : r.queries) {
    QueryRecord rec;
    rec.id = q.trace_id;
    rec.trace_id = q.trace_id;
    rec.outcome = q.outcome;
    rec.observed_freshness = q.observed_freshness;
    rec.commit_time = q.commit_time;
    rec.restarts = q.restarts;
    rec.preference_class = q.preference_class;
    run.queries.push_back(rec);
  }
  run.series = std::move(r.merged_series);
  return run;
}

/// The sharded differential run (DiffCase::shards >= 1). shards == 1 pins
/// the sharded runner bit-for-bit against the monolithic naive reference
/// model; shards > 1 pins the optimized sharded stack against a
/// reference-engine sharded stack and validates the cross-shard parent
/// (Eq. 5) accounting. `optimized_workload` is the case's workload, streamed
/// if the case asks; `schedule` is the monolithic compilation (shards == 1).
StatusOr<DiffResult> RunShardedDiff(const DiffCase& c, const DiffOptions& opts,
                                    const Workload& optimized_workload,
                                    const FaultSchedule* schedule) {
  DiffResult result;
  ShardedParams sp;
  sp.shards = c.shards;
  sp.jobs = c.shard_jobs;
  sp.engine = c.engine;
  sp.options = PerturbedOptions(c.options, opts.perturb);
  sp.record_series = opts.compare_series;
  sp.scenario = c.scenario.empty() ? nullptr : &c.scenario;
  sp.fault_seed = c.workload_seed;
  sp.perturb_admit_off_by_one = opts.perturb == Perturbation::kAdmitOffByOne;
  sp.engine.session.drop_retry_at =
      opts.perturb == Perturbation::kDropRetry ? 1 : 0;

  auto optimized = RunSharded(optimized_workload, c.policy, c.weights, sp);
  if (!optimized.ok()) return optimized.status();
  // Conservation checks on the optimized side before it is consumed: every
  // sub-query a shard saw is a split of a parent, fault-injected, or a
  // closed-loop resubmission of one of those, and the merged submitted
  // count is exactly the joined parent count.
  int64_t shard_submitted = 0;
  int64_t shard_injected = 0;
  int64_t shard_retries = 0;
  for (const RunMetrics& m : optimized->per_shard) {
    shard_submitted += m.counts.submitted;
    shard_injected += m.fault_injected_queries;
    shard_retries += m.session_retries;
  }
  const int64_t expected_subs =
      optimized->subqueries + shard_injected + shard_retries;
  const int64_t parent_count =
      static_cast<int64_t>(optimized->queries.size());
  const int64_t merged_submitted = optimized->metrics.counts.submitted;
  result.optimized = ShardedToDiffRun(std::move(*optimized));

  if (c.shards == 1) {
    auto reference =
        RunSide(c, c.workload, schedule, opts, /*reference=*/true);
    if (!reference.ok()) return reference.status();
    result.reference = std::move(*reference);

    // Closed-loop runs resolve one monolithic record per *attempt*, while
    // the sharded side joins parents over final attempts only. Collapse the
    // reference records to the last record per parent and subtract the
    // dropped attempts (necessarily non-committed, so the response/freshness
    // stats are untouched) from the aggregate counts, so both sides speak
    // parent-level.
    if (c.engine.session.sessions > 0) {
      std::vector<QueryRecord>& recs = result.reference.queries;
      std::unordered_map<TxnId, size_t> last;
      for (size_t p = 0; p < recs.size(); ++p) {
        if (recs[p].trace_id != kInvalidTxn) last[recs[p].trace_id] = p;
      }
      RunMetrics& rm = result.reference.metrics;
      std::vector<QueryRecord> finals;
      finals.reserve(recs.size());
      for (size_t p = 0; p < recs.size(); ++p) {
        const QueryRecord& r = recs[p];
        if (r.trace_id == kInvalidTxn || last[r.trace_id] == p) {
          finals.push_back(r);
          continue;
        }
        const auto drop = [&r](OutcomeCounts& counts) {
          --counts.submitted;
          counts.Bump(r.outcome, -1);
        };
        drop(rm.counts);
        if (static_cast<size_t>(r.preference_class) <
            rm.per_class_counts.size()) {
          drop(rm.per_class_counts[static_cast<size_t>(r.preference_class)]);
        }
      }
      recs = std::move(finals);
    }

    // Remap the monolithic records' ids to parent trace positions (the
    // identity the sharded side carries): request id -> position in the
    // trace; fault-injected queries stay kInvalidTxn.
    std::unordered_map<TxnId, TxnId> position;
    {
      auto cursor = c.workload.NewQueryCursor();
      QueryRequest q;
      for (TxnId p = 0; cursor->Next(&q); ++p) position.emplace(q.id, p);
    }
    for (QueryRecord& r : result.reference.queries) {
      if (r.trace_id == kInvalidTxn) {
        r.id = kInvalidTxn;
      } else {
        auto it = position.find(r.trace_id);
        r.id = it == position.end() ? kInvalidTxn : it->second;
      }
    }
  } else {
    ShardedParams rp = sp;
    rp.jobs = 1;
    rp.reference_engines = true;
    rp.options = c.options;  // perturbations hit the optimized side only
    rp.perturb_admit_off_by_one = false;
    rp.engine.session.drop_retry_at = 0;
    auto reference = RunSharded(c.workload, c.policy, c.weights, rp);
    if (!reference.ok()) return reference.status();
    result.reference = ShardedToDiffRun(std::move(*reference));
  }

  Compare(c, opts, &result);
  Comparer cmp(&result, opts);
  cmp.Eq("shard.sub_conservation", shard_submitted, expected_subs);
  cmp.Eq("shard.parent_count", merged_submitted, parent_count);
  result.equivalent = result.divergence_count == 0;
  return result;
}

}  // namespace

void DiffMetrics(const RunMetrics& optimized, const RunMetrics& reference,
                 const DiffOptions& opts, DiffResult* out) {
  Comparer cmp(out, opts);
  ForEachRunMetricsField([&]<typename F>(F field) {
    if constexpr (F::oracle == OracleRole::kCompared) {
      cmp.Field(field.name, optimized.*F::member, reference.*F::member);
    }
  });
}

void DiffSeries(const std::vector<WindowSample>& optimized,
                const std::vector<WindowSample>& reference,
                const DiffOptions& opts, DiffResult* out) {
  Comparer(out, opts).Field("series", optimized, reference);
}

StatusOr<DiffRun> RunRecorded(const Workload& workload,
                              const std::string& policy,
                              const UsmWeights& weights,
                              const PolicyOptions& options,
                              EngineParams engine, bool reference,
                              bool admit_off_by_one, bool record_series) {
  StatusOr<std::unique_ptr<Policy>> inner =
      MakePolicy(policy, weights, options);
  if (!inner.ok()) return inner.status();
  RecordingPolicy recording(inner->get(), admit_off_by_one);
  TimeSeriesRecorder series(weights);
  engine.series = record_series ? &series : nullptr;
  DiffRun run;
  if (reference) {
    run.metrics = ReferenceEngine(workload, &recording, engine).Run();
  } else {
    run.metrics = Engine(workload, &recording, engine).Run();
  }
  run.queries = std::move(recording.records);
  run.series = series.samples();
  return run;
}

StatusOr<DiffResult> RunDiff(const DiffCase& c, const DiffOptions& opts) {
  // The monolithic sides share one compiled schedule; a sharded run compiles
  // the scenario per shard.
  FaultSchedule schedule;
  const FaultSchedule* schedule_ptr = nullptr;
  if (c.shards <= 1 && !c.scenario.empty()) {
    StatusOr<FaultSchedule> compiled =
        FaultSchedule::Compile(c.scenario, c.workload, c.workload_seed);
    if (!compiled.ok()) return compiled.status();
    schedule = std::move(*compiled);
    schedule_ptr = &schedule;
  }

  // When streaming, the optimized side reads the identical trace from a
  // VectorQuerySource instead of the workload's own vector.
  Workload streamed;
  const Workload* optimized_workload = &c.workload;
  if (c.stream_queries) {
    streamed = c.workload;
    ConvertToStreamingWorkload(&streamed);
    optimized_workload = &streamed;
  }
  if (c.shards >= 1) {
    return RunShardedDiff(c, opts, *optimized_workload, schedule_ptr);
  }

  DiffResult result;
  auto optimized =
      RunSide(c, *optimized_workload, schedule_ptr, opts, /*reference=*/false);
  if (!optimized.ok()) return optimized.status();
  result.optimized = std::move(*optimized);
  auto reference =
      RunSide(c, c.workload, schedule_ptr, opts, /*reference=*/true);
  if (!reference.ok()) return reference.status();
  result.reference = std::move(*reference);
  Compare(c, opts, &result);
  result.equivalent = result.divergence_count == 0;
  return result;
}

DiffCase ShrinkCase(const DiffCase& c, const DiffOptions& opts) {
  if (!Diverges(c, opts)) return c;
  DiffCase best = c;
  bool progress = true;
  while (progress) {
    progress = false;

    // Biggest single reduction first: drop the fault layer whole.
    if (!best.scenario.faults.empty()) {
      DiffCase cand = best;
      cand.scenario.faults.clear();
      if (Diverges(cand, opts)) {
        best = std::move(cand);
        progress = true;
        continue;
      }
    }

    // Halve the query-arrival list (keep either half).
    for (const bool drop_front : {true, false}) {
      const size_t half = best.workload.queries.size() / 2;
      if (half == 0) break;
      DiffCase cand = best;
      auto& q = cand.workload.queries;
      if (drop_front) {
        q.erase(q.begin(), q.begin() + static_cast<ptrdiff_t>(half));
      } else {
        q.erase(q.end() - static_cast<ptrdiff_t>(half), q.end());
      }
      // Survivors are renumbered 0..n-1, the ids a generated trace of that
      // length carries, so the shrunk case replays like a generated one.
      for (size_t p = 0; p < q.size(); ++p) q[p].id = static_cast<TxnId>(p);
      if (Diverges(cand, opts)) {
        best = std::move(cand);
        progress = true;
        break;
      }
    }
    if (progress) continue;

    // Halve the fault list.
    for (const bool drop_front : {true, false}) {
      const size_t half = best.scenario.faults.size() / 2;
      if (half == 0) break;
      DiffCase cand = best;
      auto& f = cand.scenario.faults;
      if (drop_front) {
        f.erase(f.begin(), f.begin() + static_cast<ptrdiff_t>(half));
      } else {
        f.erase(f.end() - static_cast<ptrdiff_t>(half), f.end());
      }
      if (Diverges(cand, opts)) {
        best = std::move(cand);
        progress = true;
        break;
      }
    }
  }
  return best;
}

std::string DescribeCase(const DiffCase& c) {
  std::ostringstream os;
  os << "seed=" << c.gen_seed << " case=" << c.gen_index
     << " policy=" << c.policy
     << " discipline="
     << (c.engine.discipline == QueueDiscipline::kFcfs ? "fcfs" : "edf")
     << " faults=" << (c.scenario.empty() ? 0 : 1)
     << " stream=" << (c.stream_queries ? 1 : 0)
     << " shards=" << c.shards << " sjobs=" << c.shard_jobs
     << " sessions=" << c.engine.session.sessions
     << " shed=" << c.engine.shed_watermark
     << " cache=" << c.engine.cache.capacity
     << " queries=" << c.workload.QueryCount()
     << " fault_windows=" << c.scenario.faults.size();
  return os.str();
}

}  // namespace unitdb
