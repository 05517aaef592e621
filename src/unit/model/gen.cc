#include "unit/model/gen.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "unit/common/rng.h"

namespace unitdb {
namespace {

const char* const kPolicies[] = {"unit", "imu", "odu", "qmf"};

/// Comma-separated selection of 1..3 distinct sourced items, or "*".
std::string DrawItemSelection(Rng& rng, const std::vector<ItemId>& sourced) {
  if (rng.Bernoulli(0.3)) return "*";
  const int n = static_cast<int>(
      rng.UniformInt(1, std::min<int64_t>(3, sourced.size())));
  std::vector<ItemId> picks;
  while (static_cast<int>(picks.size()) < n) {
    ItemId it = sourced[rng.UniformInt(0, sourced.size() - 1)];
    if (std::find(picks.begin(), picks.end(), it) == picks.end()) {
      picks.push_back(it);
    }
  }
  std::ostringstream os;
  for (size_t i = 0; i < picks.size(); ++i) {
    if (i) os << ",";
    os << picks[i];
  }
  return os.str();
}

FaultSpec DrawWindow(Rng& rng, FaultKind kind, double dur_s) {
  FaultSpec f;
  f.kind = kind;
  f.start_s = rng.Uniform(0.05, 0.6) * dur_s;
  f.end_s = f.start_s + rng.Uniform(0.1, 0.35) * dur_s;
  if (f.end_s > dur_s) f.end_s = dur_s;
  return f;
}

}  // namespace

DiffCase GenerateCase(uint64_t seed, int64_t index) {
  DiffCase c;
  c.gen_seed = seed;
  c.gen_index = index;
  Rng rng(SplitMix64(seed ^ SplitMix64(static_cast<uint64_t>(index))));

  // ---- Case matrix (rotates with index; see gen.h). ----
  c.policy = kPolicies[index % 4];
  const bool want_faults = (index / 16) % 2 == 0;
  // Pure rotation (no RNG draw): workloads stay identical to pre-streaming
  // corpora, so a replayed seed/case pair reproduces the same trace.
  c.stream_queries = (index / 32) % 2 == 0;
  // Sharded dimension, also a pure rotation: 0 (monolithic diff), 1
  // (sharded-vs-monolithic identity), 2, 3; jobs alternates per 128-block.
  c.shards = static_cast<int>((index / 64) % 4);
  c.shard_jobs = (index / 128) % 2 == 0 ? 1 : 2;

  // ---- Workload. ----
  Workload& w = c.workload;
  w.num_items = static_cast<int>(rng.UniformInt(2, 48));
  const double dur_s = rng.Uniform(8.0, 30.0);
  w.duration = SecondsToSim(dur_s);
  w.query_trace_name = "gen";
  w.update_trace_name = "gen";

  std::vector<ItemId> sourced;
  for (ItemId it = 0; it < w.num_items; ++it) {
    if (!rng.Bernoulli(0.75)) continue;
    ItemUpdateSpec u;
    u.item = it;
    const double period_s = rng.Uniform(0.2, 5.0);
    u.ideal_period = SecondsToSim(period_s);
    u.update_exec = SecondsToSim(rng.Uniform(0.001, 0.060));
    u.phase = std::min<SimTime>(SecondsToSim(rng.Uniform(0.0, period_s)),
                                u.ideal_period - 1);
    w.updates.push_back(u);
    sourced.push_back(it);
  }

  const int nq = static_cast<int>(rng.UniformInt(20, 250));
  for (int i = 0; i < nq; ++i) {
    QueryRequest q;
    q.arrival = SecondsToSim(rng.Uniform(0.0, 0.95 * dur_s));
    const double exec_s = rng.BoundedPareto(1.2, 0.002, 0.300);
    q.exec = std::max<SimDuration>(1, SecondsToSim(exec_s));
    q.relative_deadline = std::max<SimDuration>(
        q.exec + 1,
        SecondsToSim(exec_s * rng.Uniform(2.0, 12.0) +
                     rng.Uniform(0.01, 0.5)));
    q.freshness_req = rng.Uniform(0.5, 0.995);
    const int nitems = static_cast<int>(
        rng.UniformInt(1, std::min<int64_t>(4, w.num_items)));
    while (static_cast<int>(q.items.size()) < nitems) {
      ItemId it = static_cast<ItemId>(rng.UniformInt(0, w.num_items - 1));
      if (std::find(q.items.begin(), q.items.end(), it) == q.items.end()) {
        q.items.push_back(it);
      }
    }
    q.preference_class = static_cast<int>(rng.UniformInt(0, 2));
    w.queries.push_back(q);
  }
  std::stable_sort(
      w.queries.begin(), w.queries.end(),
      [](const QueryRequest& a, const QueryRequest& b) {
        return a.arrival < b.arrival;
      });
  for (size_t i = 0; i < w.queries.size(); ++i) {
    w.queries[i].id = static_cast<TxnId>(i);
  }

  // ---- Fault scenario (compiled by the harness when non-empty). ----
  // At most one window per scalar kind, so the scenario always validates
  // (overlapping same-kind scalar windows are rejected by Compile).
  if (want_faults) {
    c.scenario.name = "fuzz";
    c.scenario.seed = static_cast<uint64_t>(rng.UniformInt(1, 1 << 30));
    if (!sourced.empty() && rng.Bernoulli(0.7)) {
      FaultSpec f = DrawWindow(rng, FaultKind::kUpdateOutage, dur_s);
      f.items = DrawItemSelection(rng, sourced);
      c.scenario.faults.push_back(f);
    }
    if (!sourced.empty() && rng.Bernoulli(0.5)) {
      FaultSpec f = DrawWindow(rng, FaultKind::kUpdateBurst, dur_s);
      f.items = DrawItemSelection(rng, sourced);
      f.rate_hz = rng.Uniform(0.5, 5.0);
      c.scenario.faults.push_back(f);
    }
    if (rng.Bernoulli(0.5)) {
      FaultSpec f = DrawWindow(rng, FaultKind::kLoadStep, dur_s);
      f.rate_hz = rng.Uniform(1.0, 20.0);
      c.scenario.faults.push_back(f);
    }
    if (rng.Bernoulli(0.5)) {
      FaultSpec f = DrawWindow(rng, FaultKind::kServiceSlowdown, dur_s);
      f.factor = rng.Uniform(1.2, 3.0);
      c.scenario.faults.push_back(f);
    }
    if (rng.Bernoulli(0.5)) {
      FaultSpec f = DrawWindow(rng, FaultKind::kFreshnessShift, dur_s);
      f.delta = rng.Uniform(0.05, 0.3) * (rng.Bernoulli(0.5) ? 1.0 : -1.0);
      c.scenario.faults.push_back(f);
    }
    if (c.scenario.faults.empty()) {
      FaultSpec f = DrawWindow(rng, FaultKind::kLoadStep, dur_s);
      f.rate_hz = rng.Uniform(1.0, 20.0);
      c.scenario.faults.push_back(f);
    }
  }

  // ---- Engine tunables. ----
  const double control_periods[] = {1.0, 0.5, 0.25};
  c.engine.control_period =
      SecondsToSim(control_periods[rng.UniformInt(0, 2)]);
  c.engine.estimate_noise_sigma = rng.Bernoulli(0.3) ? 0.3 : 0.0;
  c.engine.seed = rng.NextU64();
  c.engine.discipline =
      rng.Bernoulli(0.15) ? QueueDiscipline::kFcfs : QueueDiscipline::kEdf;
  c.workload_seed = static_cast<uint64_t>(rng.UniformInt(1, 1000000));

  // ---- USM weights and policy options. ----
  if (!rng.Bernoulli(0.25)) {  // 25% naive (all-zero penalties)
    c.weights.c_r = rng.Uniform(0.0, 2.0);
    c.weights.c_fm = rng.Uniform(0.0, 2.0);
    c.weights.c_fs = rng.Uniform(0.0, 2.0);
  }
  c.options.unit.admission.initial_c_flex = rng.Uniform(0.5, 2.0);
  c.options.unit.admission.usm_check_enabled = rng.Bernoulli(0.8);
  c.options.unit.seed = rng.NextU64();

  // ---- Closed-loop session layer. Knobs are drawn unconditionally and
  // strictly after every pre-existing draw, so earlier (seed, case) pairs
  // keep byte-identical workloads and tunables; the pure index rotations
  // only decide whether the drawn values are applied.
  const bool sessions_on = (index / 256) % 2 == 1;
  const bool shed_on = (index / 512) % 2 == 1;
  SessionParams sess;
  sess.sessions = static_cast<int>(rng.UniformInt(1, 8));
  sess.max_retries = static_cast<int>(rng.UniformInt(1, 4));
  sess.think_time = SecondsToSim(rng.Uniform(0.001, 0.02));
  sess.backoff_base = SecondsToSim(rng.Uniform(0.0005, 0.01));
  sess.backoff_cap = SecondsToSim(rng.Uniform(0.05, 0.5));
  sess.jitter = rng.Uniform(0.0, 1.0);
  const SimDuration patience = SecondsToSim(rng.Uniform(0.05, 2.0));
  sess.patience = rng.Bernoulli(0.5) ? patience : 0;
  sess.seed = rng.NextU64();
  const int watermark = static_cast<int>(rng.UniformInt(1, 12));
  if (sessions_on) c.engine.session = sess;
  if (shed_on) c.engine.shed_watermark = watermark;

  // ---- Result cache. Same compatibility discipline as the session layer:
  // knobs are drawn unconditionally after every pre-existing draw, and a
  // pure index rotation decides whether they apply.
  const bool cache_on = (index / 1024) % 2 == 1;
  const int cache_capacity = static_cast<int>(rng.UniformInt(4, 64));
  if (cache_on) c.engine.cache.capacity = cache_capacity;

  // ---- Flash crowd. Same compatibility discipline: the shape is drawn
  // after every pre-existing draw, and a pure index rotation decides
  // whether it applies. Squeezing the arrivals into a short window lets the
  // ready queue grow deep enough for admission's USM check to bite.
  const bool flash_on = index % 8 == 0;  // half the unit-policy cases
  const double flash_len_s = rng.Uniform(0.01, 0.05) * dur_s;
  const double flash_start_s = rng.Uniform(0.0, 0.95 * dur_s - flash_len_s);
  if (flash_on) {
    // Monotone in the old arrival, so the trace stays sorted and keeps ids.
    const SimTime start = SecondsToSim(flash_start_s);
    const double squeeze = flash_len_s / (0.95 * dur_s);
    for (QueryRequest& q : w.queries) {
      q.arrival = start + static_cast<SimTime>(
                              static_cast<double>(q.arrival) * squeeze);
    }
    c.shape = "flash";
  }

  // ---- Coarse clock. A pure index rotation with no draw, so every other
  // case keeps its workload. Snapping the trace's and the sources' times
  // to a 5 ms grid, which the control periods already sit on, makes
  // arrivals, completions, deadlines and timers tie: the engine's merge of
  // its staged arrival and running completion into the event heap must
  // then order them as the reference engine's single event list does.
  const bool coarse_on = (index / 8) % 4 == 1;  // a quarter, every policy
  if (coarse_on) {
    constexpr SimDuration kGrid = MillisToSim(5.0);
    auto snap = [](SimDuration t) { return (t + kGrid / 2) / kGrid * kGrid; };
    for (QueryRequest& q : w.queries) {
      q.arrival = snap(q.arrival);  // monotone: stays sorted, keeps ids
      q.exec = std::max(kGrid, snap(q.exec));
      q.relative_deadline =
          std::max(q.exec + kGrid, snap(q.relative_deadline));
    }
    for (ItemUpdateSpec& u : w.updates) {
      u.ideal_period = std::max(kGrid, snap(u.ideal_period));
      u.update_exec = std::max(kGrid, snap(u.update_exec));
      u.phase = std::min(snap(u.phase), u.ideal_period - kGrid);
    }
    c.shape = flash_on ? "flash+coarse" : "coarse";
  }

  return c;
}

}  // namespace unitdb
