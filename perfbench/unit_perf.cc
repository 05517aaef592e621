// unit_perf: the repository benchmark driver. One invocation builds one
// workload from its seed, runs it end to end through the public entry point
// for a fixed measuring time (no instrumentation attached), checks the
// outputs, then makes one traced pass that splits the cost by layer.
//
// Usage: unit_perf workload=<paper-heavy|stream-session|shard-write>
//                  [seed=42] [seconds=10] [trace=0|1] [commit=<git sha>]
//   seconds  measuring time; runs repeat until it is spent (and at least
//            kMinMeasuredRuns runs were made after the warm-up run)
//   trace    which metric set the last stdout line carries: 0 = end-to-end,
//            1 = per-layer (the traced pass runs either way)
//
// Every argument is parsed strictly: an unknown key, an unparseable number
// or an out-of-range value exits non-zero without a result. A build without
// optimisation or with assertions on refuses to report timings.
//
// Output: a `{"report": ...}` line with provenance, every metric and every
// failed check, then the result line `{"correct", "attempted", "failed",
// "metrics"}`.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "timing_policy.h"
#include "unit/common/config.h"
#include "unit/core/admission.h"
#include "unit/core/policies/unit_policy.h"
#include "unit/model/diff.h"
#include "unit/sched/engine.h"
#include "unit/shard/router.h"
#include "unit/shard/sharded.h"
#include "unit/sim/server.h"
#include "unit/workload/query_source.h"
#include "unit/workload/query_trace.h"
#include "unit/workload/update_trace.h"

#ifndef PERF_BUILD_TYPE
#define PERF_BUILD_TYPE "unknown"
#endif

namespace unitdb::perf {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Eq. 5 weights (G_s, C_r, C_fm, C_fs) every workload is scored with.
const UsmWeights kWeights{1.0, 0.5, 1.0, 0.5};

/// Eq. 5's average lies in [-largest penalty, G_s] and is negative under
/// deep overload. The reported score adds G_s plus the largest penalty, so it
/// stays at G_s or above and a relative bound reads the same way whatever
/// the sign of the raw average.
double UsmShifted(const OutcomeCounts& counts) {
  return UsmAverage(counts, kWeights) + kWeights.gain +
         std::max({kWeights.c_r, kWeights.c_fm, kWeights.c_fs});
}

/// Simulated length of every workload.
constexpr double kHorizonS = 4000.0;
/// Simulated seconds of the workload replayed through the differential
/// oracle (the naive reference engine is O(N_rq) per step).
constexpr double kDiffPrefixS = 150.0;
/// shard-write's shard count (and worker threads).
constexpr int kShards = 4;
/// Untimed (but checked) runs before measuring: the first runs of a process
/// pay for growing the heap and the thread arenas.
constexpr int kWarmupRuns = 1;
/// Timed runs made even when they take longer than the measuring time.
constexpr int kMinMeasuredRuns = 3;

// --- arguments ------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 42;
  int64_t seconds = 10;
  int64_t trace = 0;
  std::string commit = "unknown";
  std::string argline;
};

Status ParseInt(const Config& c, const std::string& key, int64_t lo,
                int64_t hi, int64_t* out) {
  if (!c.Has(key)) return Status::Ok();
  const std::string v = c.GetString(key);
  int64_t x = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (v.empty() || ec != std::errc() || end != v.data() + v.size()) {
    return Status::InvalidArgument(key + "=" + v + " is not an integer");
  }
  if (x < lo || x > hi) {
    return Status::InvalidArgument(key + "=" + v + " is outside [" +
                                   std::to_string(lo) + ", " +
                                   std::to_string(hi) + "]");
  }
  *out = x;
  return Status::Ok();
}

StatusOr<Options> ParseOptions(int argc, char** argv) {
  auto config = Config::ParseArgs(argc, argv);
  if (!config.ok()) return config.status();
  if (Status s = config->ExpectKeys(
          {"workload", "seed", "seconds", "trace", "commit"});
      !s.ok()) {
    return s;
  }
  Options o;
  o.workload = config->GetString("workload");
  if (o.workload != "paper-heavy" && o.workload != "stream-session" &&
      o.workload != "shard-write") {
    return Status::InvalidArgument(
        "workload must be paper-heavy, stream-session or shard-write");
  }
  int64_t seed = 42;
  for (const Status& s :
       {ParseInt(*config, "seed", 0, int64_t{1} << 62, &seed),
        ParseInt(*config, "seconds", 1, 120, &o.seconds),
        ParseInt(*config, "trace", 0, 1, &o.trace)}) {
    if (!s.ok()) return s;
  }
  o.seed = static_cast<uint64_t>(seed);
  o.commit = config->GetString("commit", "unknown");
  if (o.commit.empty() || o.commit.size() > 64 ||
      o.commit.find_first_not_of("0123456789abcdefghijklmnopqrstuvwxyz-") !=
          std::string::npos) {
    return Status::InvalidArgument("commit=" + o.commit +
                                   " is not a git sha or 'unknown'");
  }
  for (int i = 1; i < argc; ++i) {
    if (i > 1) o.argline += ' ';
    o.argline += argv[i];
  }
  return o;
}

// --- workloads ------------------------------------------------------------

/// One workload: its inputs plus the configuration it runs under.
struct Bench {
  std::string name;
  QueryTraceParams qp;
  UpdateTraceParams up;
  bool streamed = false;
  bool sharded = false;
  Workload workload;
  Server::Config config;         ///< single-engine runs and every shard
  ShardedParams sharded_params;  ///< shard-write only
};

StatusOr<Bench> MakeBench(const Options& o) {
  Bench b;
  b.name = o.workload;
  b.qp.seed = o.seed;
  b.qp.duration = SecondsToSim(kHorizonS);
  b.qp.base_rate_hz = 50.0;
  // Flash crowds keep the generator's 25x rate and duty cycle but come 10x
  // shorter and 10x as often (9 s / 0.25 s mean sojourns, not 90 s / 2.5 s):
  // a run then holds ~400 of them, so the outcome mix, and the cost per
  // query, no longer hinge on how many crowds a seed happens to draw. Other
  // generator settings are the GenerateQueryTrace defaults.
  b.qp.mean_normal_sojourn_s = 9.0;
  b.qp.mean_burst_sojourn_s = 0.25;
  b.up.seed = o.seed + 1;
  b.up.volume = UpdateVolume::kMedium;
  b.up.distribution = UpdateDistribution::kUniform;
  b.config.policy = "unit";
  b.config.weights = kWeights;
  if (b.name == "stream-session") {
    b.streamed = true;
    b.config.engine.session.sessions = 48;
    b.config.engine.cache.capacity = 64;
  } else if (b.name == "shard-write") {  // as in bench_shard_scaling
    b.sharded = true;
    b.qp.base_rate_hz = 80.0;
    b.qp.burst_rate_multiplier = 1.0;
    b.qp.deadline_hi_factor = 3.0;
    b.up.volume = UpdateVolume::kHigh;
    b.up.distribution = UpdateDistribution::kNegative;
    b.sharded_params.shards = kShards;
    b.sharded_params.jobs = kShards;
    b.sharded_params.engine = b.config.engine;
    b.sharded_params.options = b.config.options;
  }
  auto w = b.streamed ? MakeStreamingWorkload(b.qp) : GenerateQueryTrace(b.qp);
  if (!w.ok()) return w.status();
  if (Status s = GenerateUpdateTrace(b.up, *w); !s.ok()) return s;
  b.workload = std::move(w).value();
  return b;
}

/// Shard `shard`'s copy of the single-engine configuration, seeded as
/// RunSharded seeds its shards.
Server::Config ShardConfig(const Bench& b, int shard) {
  Server::Config c = b.config;
  c.engine.seed = ShardSeed(b.config.engine.seed, shard, kShards);
  c.options.unit.seed = ShardSeed(b.config.options.unit.seed, shard, kShards);
  return c;
}

// --- output checks --------------------------------------------------------

void Expect(bool ok, const std::string& what, std::vector<std::string>* out) {
  if (!ok) out->push_back(what);
}

/// Every deterministic field of two runs' metrics, compared exactly.
void CompareMetrics(const RunMetrics& a, const RunMetrics& b,
                    const std::string& where, std::vector<std::string>* out) {
  const size_t before = out->size();
#define PERF_SAME(field) \
  Expect(a.field == b.field, where + ": " #field " differs", out)
  PERF_SAME(counts.submitted);
  PERF_SAME(counts.success);
  PERF_SAME(counts.rejected);
  PERF_SAME(counts.dmf);
  PERF_SAME(counts.dsf);
  PERF_SAME(query_response_s.count());
  PERF_SAME(query_response_s.sum());
  PERF_SAME(query_freshness.sum());
  PERF_SAME(update_latency_s.sum());
  PERF_SAME(busy_s);
  PERF_SAME(events_processed);
  PERF_SAME(events_cancelled);
  PERF_SAME(event_compactions);
  PERF_SAME(events_compacted);
  PERF_SAME(peak_ready_depth);
  PERF_SAME(txn_live_peak);
  PERF_SAME(txn_slots_created);
  PERF_SAME(txn_released);
  PERF_SAME(readset_inline);
  PERF_SAME(readset_spill);
  PERF_SAME(session_requests);
  PERF_SAME(session_retries);
  PERF_SAME(session_successes);
  PERF_SAME(session_abandons);
  PERF_SAME(queries_shed);
  PERF_SAME(cache_hits);
  PERF_SAME(cache_misses);
  PERF_SAME(cache_invalidations);
  PERF_SAME(cache_stale_skips);
  PERF_SAME(preemptions);
  PERF_SAME(lock_restarts);
  PERF_SAME(update_commits);
  PERF_SAME(on_demand_updates);
  PERF_SAME(updates_generated);
  PERF_SAME(updates_dropped);
  PERF_SAME(per_item_accesses);
  PERF_SAME(per_item_applied_updates);
#undef PERF_SAME
  // One line per mismatching run is enough; drop the field-by-field tail.
  if (out->size() > before + 1) out->resize(before + 1);
}

/// Outcome conservation of one run over `trace_queries` trace queries.
void CheckConservation(const RunMetrics& m, int64_t trace_queries,
                       bool sessions, std::vector<std::string>* out) {
  const OutcomeCounts& c = m.counts;
  Expect(c.submitted == c.resolved(),
         "submitted != success + rejected + dmf + dsf", out);
  if (sessions) {
    Expect(m.session_requests == trace_queries,
           "session requests != trace queries", out);
    Expect(m.session_requests == m.session_successes + m.session_abandons,
           "session requests != successes + abandons", out);
  } else {
    Expect(c.submitted == trace_queries, "submitted != trace queries", out);
  }
}

// --- measured runs --------------------------------------------------------

/// One run of the workload through the public entry point.
struct RunSample {
  double setup_s = 0.0;  ///< before the first simulated event
  double total_s = 0.0;  ///< the whole entry point, set-up included
  RunMetrics metrics;    ///< merged view for shard-write
  std::vector<RunMetrics> per_shard;
};

StatusOr<RunSample> RunSingle(const Bench& b) {
  RunSample s;
  const auto t0 = Clock::now();
  auto server = Server::Create(b.workload, b.config);
  if (!server.ok()) return server.status();
  s.setup_s = Since(t0);
  s.metrics = (*server)->Run();
  s.total_s = Since(t0);
  return s;
}

StatusOr<RunSample> RunShardedOnce(const Bench& b) {
  RunSample s;
  {
    // Set-up as separate public calls: the partition, then each shard's
    // Server::Create on its sub-workload.
    const auto t0 = Clock::now();
    auto part = PartitionWorkload(b.workload, ShardRouter(kShards));
    if (!part.ok()) return part.status();
    std::vector<std::unique_ptr<Server>> servers;
    for (int k = 0; k < kShards; ++k) {
      auto server = Server::Create(part->shards[static_cast<size_t>(k)],
                                   ShardConfig(b, k));
      if (!server.ok()) return server.status();
      servers.push_back(std::move(server).value());
    }
    s.setup_s = Since(t0);
  }
  const auto t0 = Clock::now();
  auto r = RunSharded(b.workload, b.config.policy, kWeights, b.sharded_params);
  s.total_s = Since(t0);
  if (!r.ok()) return r.status();
  s.metrics = std::move(r->metrics);
  s.per_shard = std::move(r->per_shard);
  return s;
}

/// Peak resident set of the process so far, MB.
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// --- differential check ---------------------------------------------------

/// The first kDiffPrefixS simulated seconds of the workload, materialized:
/// the same queries and update sources, cut at the prefix horizon.
StatusOr<Workload> PrefixWorkload(const Bench& b) {
  auto w = GenerateQueryTrace(b.qp);  // bit-identical to the streamed trace
  if (!w.ok()) return w.status();
  if (Status s = GenerateUpdateTrace(b.up, *w); !s.ok()) return s;
  const SimTime cut = std::min(w->duration, SecondsToSim(kDiffPrefixS));
  w->duration = cut;
  w->queries.erase(
      std::find_if(w->queries.begin(), w->queries.end(),
                   [cut](const QueryRequest& q) { return q.arrival >= cut; }),
      w->queries.end());
  return w;
}

/// Optimized engine against the reference engine on the workload's prefix,
/// in the workload's exact configuration.
void CheckDifferential(const Bench& b, std::vector<std::string>* out) {
  auto prefix = PrefixWorkload(b);
  if (!prefix.ok()) {
    out->push_back("differential prefix: " + prefix.status().ToString());
    return;
  }
  DiffCase c;
  c.workload = std::move(prefix).value();
  c.policy = b.config.policy;
  c.weights = kWeights;
  c.engine = b.config.engine;
  c.options = b.config.options;
  c.stream_queries = b.streamed;
  if (b.sharded) {
    c.shards = b.sharded_params.shards;
    c.shard_jobs = b.sharded_params.jobs;
  }
  auto r = RunDiff(c);
  if (!r.ok()) {
    out->push_back("differential: " + r.status().ToString());
  } else if (!r->equivalent) {
    out->push_back("differential: " + std::to_string(r->divergence_count) +
                   " divergences, first: " +
                   (r->divergences.empty() ? "?" : r->divergences[0]));
  }
}

// --- traced pass ----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Hook spans and policy counters folded over every traced engine (one, or
/// one per shard), plus the engine counters of the run being traced.
struct LayerTotals {
  HookSpan attach, admit, resolved, arrival, tick;
  int64_t hook_ns = 0;
  double index_init_s = 0.0;
  double create_s = 0.0;
  double run_s = 0.0;
  std::vector<double> windows_ms;
  int64_t admitted = 0, rejected_deadline = 0, rejected_usm = 0;
  int64_t degrades = 0, upgrades = 0, picks = 0;
  int64_t signals[5] = {0, 0, 0, 0, 0};
  /// The traced run's counters (shard-write: RunSharded's merged view).
  RunMetrics engine;

  void AddPolicy(const TimingPolicy& tp, const Policy& inner) {
    for (auto [to, from] : {std::pair{&attach, &tp.attach},
                            std::pair{&admit, &tp.admit_query},
                            std::pair{&resolved, &tp.query_resolved},
                            std::pair{&arrival, &tp.source_arrival},
                            std::pair{&tick, &tp.control_tick}}) {
      to->calls += from->calls;
      to->ns += from->ns;
    }
    hook_ns += tp.TotalHookNs();
    for (size_t i = 1; i < tp.tick_starts_ns.size(); ++i) {
      windows_ms.push_back(
          static_cast<double>(tp.tick_starts_ns[i] - tp.tick_starts_ns[i - 1]) *
          1e-6);
    }
    if (const auto* unit = dynamic_cast<const UnitPolicy*>(&inner)) {
      admitted += unit->admission().admitted();
      rejected_deadline += unit->admission().rejected_by_deadline();
      rejected_usm += unit->admission().rejected_by_usm();
      degrades += unit->modulator().degrade_signals();
      upgrades += unit->modulator().upgrade_signals();
      picks += unit->modulator().total_picks();
      for (int s = 0; s < 5; ++s) {
        signals[s] += unit->signals(static_cast<ControlSignal>(s));
      }
    }
  }
};

/// One engine run with every policy hook timed.
struct TracedEngine {
  RunMetrics metrics;
  double seconds = 0.0;  ///< create + run
};

StatusOr<TracedEngine> RunTracedEngine(const Workload& w,
                                       const Server::Config& config,
                                       LayerTotals* totals) {
  auto policy = MakePolicy(config.policy, config.weights, config.options);
  if (!policy.ok()) return policy.status();
  TimingPolicy timed(policy->get());
  TracedEngine out;
  const auto t0 = Clock::now();
  Engine engine(w, &timed, config.engine);
  const double create_s = Since(t0);
  if (engine.admission_index().enabled()) {
    // The engine built an admission index: time the same Init alone.
    AdmissionIndex index;
    const auto t_init = Clock::now();
    index.Init(w);
    totals->index_init_s += Since(t_init);
  }
  const auto t1 = Clock::now();
  out.metrics = engine.Run();
  const double run_s = Since(t1);
  out.seconds = create_s + run_s;
  totals->create_s += create_s;
  totals->run_s += run_s;
  totals->AddPolicy(timed, **policy);
  return out;
}

/// Untraced policy + engine construction and run of one shard, as
/// RunSharded runs it.
StatusOr<std::pair<RunMetrics, double>> RunPlainShard(
    const Workload& sub, const Server::Config& config) {
  const auto t0 = Clock::now();
  auto policy = MakePolicy(config.policy, config.weights, config.options);
  if (!policy.ok()) return policy.status();
  Engine engine(sub, policy->get(), config.engine);
  RunMetrics m = engine.Run();
  return std::pair{std::move(m), Since(t0)};
}

/// shard-write's phase times (all zero elsewhere).
struct ShardPhases {
  double partition_s = 0.0;
  double join_merge_s = 0.0;
  int64_t cross_shard_queries = 0;
  int64_t subqueries = 0;
  double run_s[kShards] = {};     ///< policy + engine + run, untraced
  double attach_s[kShards] = {};  ///< Policy::Attach
};

struct TraceResult {
  LayerTotals totals;
  ShardPhases phases;
  double overhead_s = 0.0;
  std::vector<std::string> failures;
};

std::vector<Metric> LayerMetrics(const TraceResult& r) {
  const LayerTotals& t = r.totals;
  const RunMetrics& m = t.engine;
  std::vector<Metric> out;
  auto add = [&out](std::string name, double v, const char* unit) {
    out.push_back(Metric{std::move(name), v, unit});
  };
  auto count = [&add](const char* name, int64_t v) {
    add(name, static_cast<double>(v), "count");
  };
  add("setup.index_init_s", t.index_init_s, "s");
  add("setup.create_s", t.create_s, "s");
  add("policy.attach_s", t.attach.seconds(), "s");
  count("admission.calls", t.admit.calls);
  add("admission.s", t.admit.seconds(), "s");
  add("admission.ns_per_call",
      t.admit.calls > 0 ? static_cast<double>(t.admit.ns) /
                              static_cast<double>(t.admit.calls)
                        : 0.0,
      "ns");
  count("admission.admitted", t.admitted);
  count("admission.rejected_deadline", t.rejected_deadline);
  count("admission.rejected_usm", t.rejected_usm);
  add("um.resolved_s", t.resolved.seconds(), "s");
  count("um.resolved_calls", t.resolved.calls);
  add("um.arrival_s", t.arrival.seconds(), "s");
  count("um.arrival_calls", t.arrival.calls);
  count("um.degrade_signals", t.degrades);
  count("um.upgrade_signals", t.upgrades);
  count("um.lottery_picks", t.picks);
  count("um.updates_generated", m.updates_generated);
  count("um.updates_dropped", m.updates_dropped);
  add("lbc.tick_s", t.tick.seconds(), "s");
  count("lbc.ticks", t.tick.calls);
  count("lbc.signals.loosen",
        t.signals[static_cast<int>(ControlSignal::kLoosenAdmission)]);
  count("lbc.signals.degrade_tighten",
        t.signals[static_cast<int>(ControlSignal::kDegradeAndTighten)]);
  count("lbc.signals.upgrade",
        t.signals[static_cast<int>(ControlSignal::kUpgradeUpdates)]);
  count("lbc.signals.preventive",
        t.signals[static_cast<int>(ControlSignal::kPreventiveDegrade)]);
  add("engine.run_s", t.run_s, "s");
  add("engine.self_s", t.run_s - static_cast<double>(t.hook_ns) * 1e-9, "s");
  add("engine.window_ms.p50", Percentile(t.windows_ms, 50.0), "ms");
  add("engine.window_ms.p99", Percentile(t.windows_ms, 99.0), "ms");
  count("events.processed", m.events_processed);
  count("events.cancelled", m.events_cancelled);
  count("events.compacted", m.events_compacted);
  count("events.compactions", m.event_compactions);
  count("ready.peak_depth", m.peak_ready_depth);
  count("txn.live_peak", m.txn_live_peak);
  count("locks.preemptions", m.preemptions);
  count("locks.restarts", m.lock_restarts);
  count("cache.hits", m.cache_hits);
  count("cache.misses", m.cache_misses);
  count("cache.stale_skips", m.cache_stale_skips);
  count("cache.invalidations", m.cache_invalidations);
  const int64_t lookups = m.cache_hits + m.cache_misses + m.cache_stale_skips;
  add("cache.hit_ratio",
      lookups > 0 ? static_cast<double>(m.cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0,
      "ratio");
  count("session.requests", m.session_requests);
  count("session.retries", m.session_retries);
  count("session.abandons", m.session_abandons);

  const ShardPhases& p = r.phases;
  double sum = 0.0, max = 0.0;
  for (double s : p.run_s) {
    sum += s;
    max = std::max(max, s);
  }
  const double mean = sum / kShards;
  add("shard.partition_s", p.partition_s, "s");
  add("shard.run_s.max", max, "s");
  add("shard.run_s.mean", mean, "s");
  add("shard.imbalance", mean > 0.0 ? max / mean : 0.0, "ratio");
  add("shard.join_merge_s", p.join_merge_s, "s");
  count("shard.cross_shard_queries", p.cross_shard_queries);
  count("shard.subqueries", p.subqueries);
  for (int k = 0; k < kShards; ++k) {
    add("shard." + std::to_string(k) + ".run_s", p.run_s[k], "s");
  }
  for (int k = 0; k < kShards; ++k) {
    add("shard." + std::to_string(k) + ".attach_s", p.attach_s[k], "s");
  }
  add("trace.overhead_s", r.overhead_s, "s");
  return out;
}

/// Single-engine workloads: the workload once through a timed-policy
/// engine, checked against the untraced reference run `untraced`, whose
/// median time is `untraced_s`.
TraceResult TraceSingle(const Bench& b, const RunSample& untraced,
                        double untraced_s) {
  TraceResult r;
  auto traced = RunTracedEngine(b.workload, b.config, &r.totals);
  if (!traced.ok()) {
    r.failures.push_back("traced pass: " + traced.status().ToString());
    return r;
  }
  r.totals.engine = traced->metrics;
  CompareMetrics(traced->metrics, untraced.metrics, "traced vs untraced",
                 &r.failures);
  r.overhead_s = traced->seconds - untraced_s;
  return r;
}

/// shard-write replayed phase by phase: RunSharded(jobs=1), the partition,
/// then each shard's policy and engine built with ShardSeed seeds, once
/// untraced and once traced. RunSharded's time beyond the partition and the
/// untraced shards is the join and merge.
TraceResult TraceSharded(const Bench& b, const RunSample& untraced) {
  TraceResult r;
  ShardPhases& phases = r.phases;
  ShardedParams sequential = b.sharded_params;
  sequential.jobs = 1;
  const auto t_all = Clock::now();
  auto joined = RunSharded(b.workload, b.config.policy, kWeights, sequential);
  const double jobs1_s = Since(t_all);
  if (!joined.ok()) {
    r.failures.push_back("RunSharded(jobs=1): " + joined.status().ToString());
    return r;
  }
  CompareMetrics(joined->metrics, untraced.metrics,
                 "jobs=1 vs jobs=" + std::to_string(kShards), &r.failures);
  r.totals.engine = joined->metrics;

  const auto t_part = Clock::now();
  auto part = PartitionWorkload(b.workload, ShardRouter(kShards));
  phases.partition_s = Since(t_part);
  if (!part.ok()) {
    r.failures.push_back("partition: " + part.status().ToString());
    return r;
  }
  phases.cross_shard_queries = part->cross_shard_queries;
  phases.subqueries = part->subqueries;
  double plain_s = 0.0, traced_s = 0.0;
  for (int k = 0; k < kShards; ++k) {
    const Workload& sub = part->shards[static_cast<size_t>(k)];
    const Server::Config config = ShardConfig(b, k);
    const std::string where = "shard " + std::to_string(k);
    auto plain = RunPlainShard(sub, config);
    const double attach_before = r.totals.attach.seconds();
    auto traced = RunTracedEngine(sub, config, &r.totals);
    if (!plain.ok() || !traced.ok()) {
      r.failures.push_back(where + " replay failed");
      return r;
    }
    plain_s += plain->second;
    traced_s += traced->seconds;
    phases.run_s[k] = plain->second;
    phases.attach_s[k] = r.totals.attach.seconds() - attach_before;
    const RunMetrics& expect = joined->per_shard[static_cast<size_t>(k)];
    CompareMetrics(plain->first, expect, where + " replay", &r.failures);
    CompareMetrics(traced->metrics, expect, where + " traced", &r.failures);
    CompareMetrics(untraced.per_shard[static_cast<size_t>(k)], expect,
                   where + " jobs=" + std::to_string(kShards), &r.failures);
  }
  phases.join_merge_s = jobs1_s - phases.partition_s - plain_s;
  r.overhead_s = traced_s - plain_s;
  return r;
}

// --- reporting ------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonNumber(v[i]);
  }
  return out + "]";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string ProvenanceJson(const Options& o) {
  std::ostringstream s;
  s << "{\"commit\": " << JsonString(o.commit)
    << ", \"build_type\": " << JsonString(PERF_BUILD_TYPE)
    << ", \"compiler\": " << JsonString(CompilerName())
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"args\": " << JsonString(o.argline) << ", \"seed\": " << o.seed
    << "}";
  return s.str();
}

int Main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  (void)argc;
  (void)argv;
  std::cerr << "unit_perf: refusing to report timings from a build without "
               "optimisation or with assertions on (configure with "
               "-DCMAKE_BUILD_TYPE=Release)\n";
  return 3;
#else
  auto options = ParseOptions(argc, argv);
  if (!options.ok()) {
    std::cerr << options.status().ToString() << "\n";
    return 2;
  }
  const Options& o = *options;
  auto bench = MakeBench(o);
  if (!bench.ok()) {
    std::cerr << "workload: " << bench.status().ToString() << "\n";
    return 1;
  }
  const Bench& b = *bench;
  const bool sessions = b.config.engine.session.sessions > 0;
  const int64_t trace_queries = b.workload.QueryCount();

  // Measured runs, repeated until the measuring time is spent. The first
  // successful run is the reference every later one must reproduce.
  std::vector<std::string> failures;
  std::optional<RunSample> reference;
  std::vector<double> setup_s, total_s;
  int64_t attempted = 0, failed = 0;
  auto measure_t0 = Clock::now();
  while (attempted < kWarmupRuns + kMinMeasuredRuns ||
         Since(measure_t0) < static_cast<double>(o.seconds)) {
    if (++attempted == kWarmupRuns + 1) measure_t0 = Clock::now();
    const std::string tag = "run " + std::to_string(attempted);
    auto s = b.sharded ? RunShardedOnce(b) : RunSingle(b);
    std::vector<std::string> run_failures;
    if (!s.ok()) {
      run_failures.push_back(tag + ": " + s.status().ToString());
    } else {
      CheckConservation(s->metrics, trace_queries, sessions, &run_failures);
      if (reference) {
        CompareMetrics(s->metrics, reference->metrics,
                       tag + " vs first", &run_failures);
      }
    }
    if (!run_failures.empty()) {
      ++failed;
      failures.insert(failures.end(), run_failures.begin(), run_failures.end());
      continue;
    }
    if (attempted > kWarmupRuns) {
      setup_s.push_back(s->setup_s);
      total_s.push_back(s->total_s);
    }
    if (!reference) reference = std::move(s).value();
  }
  const double peak_rss_mb = PeakRssMb();

  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  double usm = 0.0;
  if (reference && !total_s.empty()) {
    const RunSample& first = *reference;
    const double run_s = Median(total_s);
    usm = UsmAverage(first.metrics.counts, kWeights);
    e2e = {{"queries_per_s", static_cast<double>(trace_queries) / run_s,
            "queries/s"},
           {"setup_s", Median(setup_s), "s"},
           {"peak_rss_mb", peak_rss_mb, "MB"},
           {"usm_shifted", UsmShifted(first.metrics.counts), "score"}};
    CheckDifferential(b, &failures);
    TraceResult traced =
        b.sharded ? TraceSharded(b, first) : TraceSingle(b, first, run_s);
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());
    layers = LayerMetrics(traced);
  } else {
    failures.push_back("no measured run succeeded");
  }

  std::string failures_json = "[";
  for (size_t i = 0; i < failures.size(); ++i) {
    failures_json += (i > 0 ? ", " : "") + JsonString(failures[i]);
  }
  failures_json += "]";
  std::cout << "{\"report\": {\"workload\": " << JsonString(b.name)
            << ", \"trace_queries\": " << trace_queries
            << ", \"usm\": " << JsonNumber(usm)
            << ", \"provenance\": " << ProvenanceJson(o)
            << ", \"run_total_s\": " << JsonList(total_s)
            << ", \"run_setup_s\": " << JsonList(setup_s)
            << ", \"end_to_end\": " << MetricsJson(e2e)
            << ", \"per_layer\": " << MetricsJson(layers)
            << ", \"failures\": " << failures_json << "}}\n";

  const bool correct = failures.empty() && failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << MetricsJson(o.trace == 1 ? layers : e2e)
            << "}" << std::endl;
  return 0;
#endif
}

}  // namespace
}  // namespace unitdb::perf

int main(int argc, char** argv) { return unitdb::perf::Main(argc, argv); }
