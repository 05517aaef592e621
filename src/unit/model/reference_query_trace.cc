#include "unit/model/reference_query_trace.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "unit/common/rng.h"

namespace unitdb {

StatusOr<Workload> ReferenceGenerateQueryTrace(const QueryTraceParams& p) {
  Status s = ValidateQueryTraceParams(p);
  if (!s.ok()) return s;

  Rng rng(p.seed);
  Rng arrival_rng = rng.Fork();
  Rng item_rng = rng.Fork();
  Rng exec_rng = rng.Fork();
  Rng deadline_rng = rng.Fork();

  Workload w;
  w.num_items = p.num_items;
  w.duration = p.duration;
  w.query_trace_name = "cello-like";

  const ZipfSampler zipf(p.num_items, p.zipf_s);

  // Working set for temporal locality: a ring of recently touched items.
  std::vector<ItemId> working_set;
  size_t ws_cursor = 0;
  auto touch = [&](ItemId item) {
    if (p.working_set_size <= 0) return;
    if (static_cast<int>(working_set.size()) < p.working_set_size) {
      working_set.push_back(item);
    } else {
      working_set[ws_cursor] = item;
      ws_cursor = (ws_cursor + 1) % working_set.size();
    }
  };
  auto draw_item = [&]() -> ItemId {
    if (!working_set.empty() && item_rng.Bernoulli(p.locality_p)) {
      return working_set[static_cast<size_t>(item_rng.UniformInt(
          0, static_cast<int64_t>(working_set.size()) - 1))];
    }
    const ItemId fresh = zipf.Sample(item_rng);
    touch(fresh);
    return fresh;
  };

  // --- arrivals: two-state MMPP ---
  const double burst_rate = p.base_rate_hz * p.burst_rate_multiplier;
  bool in_burst = false;
  double t_s = 0.0;  // current time, seconds
  double state_end_s = arrival_rng.Exponential(p.mean_normal_sojourn_s);
  const double horizon_s = SimToSeconds(p.duration);
  std::vector<SimTime> arrivals;
  while (t_s < horizon_s) {
    const double rate = in_burst ? burst_rate : p.base_rate_hz;
    const double gap = arrival_rng.Exponential(1.0 / rate);
    if (t_s + gap >= state_end_s) {
      // State switch; no arrival in the truncated residual (memoryless).
      t_s = state_end_s;
      in_burst = !in_burst;
      state_end_s = t_s + arrival_rng.Exponential(in_burst
                                                      ? p.mean_burst_sojourn_s
                                                      : p.mean_normal_sojourn_s);
      continue;
    }
    t_s += gap;
    if (t_s < horizon_s) arrivals.push_back(SecondsToSim(t_s));
  }

  // --- per-query attributes ---
  const double exec_mu = std::log(p.exec_median_ms);
  w.queries.reserve(arrivals.size());
  double exec_sum_ms = 0.0;
  double exec_max_ms_seen = 0.0;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    QueryRequest q;
    q.id = static_cast<TxnId>(i);
    q.arrival = arrivals[i];
    // Read set: 1 + Geometric(extra_item_p) distinct items, drawn with
    // working-set temporal locality over the Zipf popularity distribution.
    q.items.push_back(draw_item());
    while (static_cast<int>(q.items.size()) < p.max_items_per_query &&
           item_rng.Bernoulli(p.extra_item_p)) {
      const ItemId extra = draw_item();
      if (std::find(q.items.begin(), q.items.end(), extra) == q.items.end()) {
        q.items.push_back(extra);
      }
    }
    const double exec_ms = std::clamp(
        exec_rng.LogNormal(exec_mu, p.exec_sigma), p.exec_min_ms,
        p.exec_max_ms);
    q.exec = std::max<SimDuration>(1, MillisToSim(exec_ms));
    q.freshness_req = p.freshness_req;
    if (p.num_preference_classes > 1) {
      q.preference_class = static_cast<int>(
          item_rng.UniformInt(0, p.num_preference_classes - 1));
    }
    exec_sum_ms += exec_ms;
    exec_max_ms_seen = std::max(exec_max_ms_seen, exec_ms);
    w.queries.push_back(std::move(q));
  }

  // --- deadlines: Uniform[lo_factor * mean exec, hi_factor * max exec] ---
  if (!w.queries.empty()) {
    const double mean_ms = exec_sum_ms / static_cast<double>(w.queries.size());
    const double lo_ms = p.deadline_lo_factor * mean_ms;
    const double hi_ms =
        std::max(lo_ms + 1e-9, p.deadline_hi_factor * exec_max_ms_seen);
    for (auto& q : w.queries) {
      q.relative_deadline = std::max<SimDuration>(
          1, MillisToSim(deadline_rng.Uniform(lo_ms, hi_ms)));
    }
  }
  return w;
}

}  // namespace unitdb
