#include "unit/workload/query_trace.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "unit/common/rng.h"
#include "unit/workload/query_source.h"

namespace unitdb {

namespace {

/// The cello-like trace of DESIGN.md §4, one query at a time: MMPP
/// arrivals, a working-set/Zipf read set, a clamped lognormal service
/// demand and a uniform deadline between bounds the whole trace fixes. Each
/// part draws from its own fork of the seed (arrival, item, exec, deadline,
/// in that order), so a pass over arrivals and service demands alone sees
/// the same values as the full stream.
class QueryStream final : public QueryCursor {
 public:
  QueryStream(const QueryTraceParams& p, double deadline_lo_ms,
              double deadline_hi_ms)
      : p_(p),
        zipf_(p.num_items, p.zipf_s),
        horizon_s_(SimToSeconds(p.duration)),
        exec_mu_(std::log(p.exec_median_ms)),
        deadline_lo_ms_(deadline_lo_ms),
        deadline_hi_ms_(deadline_hi_ms) {
    Rng rng(p.seed);
    arrival_rng_ = rng.Fork();
    item_rng_ = rng.Fork();
    exec_rng_ = rng.Fork();
    deadline_rng_ = rng.Fork();
    state_end_s_ = arrival_rng_.Exponential(p.mean_normal_sojourn_s);
    working_set_.reserve(static_cast<size_t>(std::max(0, p.working_set_size)));
  }

  /// The next arrival of the two-state MMPP in [0, duration); false once
  /// the horizon is hit.
  bool NextArrival(SimTime* arrival) {
    while (t_s_ < horizon_s_) {
      const double rate = in_burst_
                              ? p_.base_rate_hz * p_.burst_rate_multiplier
                              : p_.base_rate_hz;
      const double gap = arrival_rng_.Exponential(1.0 / rate);
      if (t_s_ + gap >= state_end_s_) {
        // State switch; no arrival in the truncated residual (memoryless).
        t_s_ = state_end_s_;
        in_burst_ = !in_burst_;
        state_end_s_ = t_s_ + arrival_rng_.Exponential(
                                  in_burst_ ? p_.mean_burst_sojourn_s
                                            : p_.mean_normal_sojourn_s);
        continue;
      }
      t_s_ += gap;
      if (t_s_ < horizon_s_) {
        *arrival = SecondsToSim(t_s_);
        return true;
      }
    }
    return false;
  }

  /// The next service demand in ms.
  double NextExecMs() {
    return std::clamp(exec_rng_.LogNormal(exec_mu_, p_.exec_sigma),
                      p_.exec_min_ms, p_.exec_max_ms);
  }

  bool Next(QueryRequest* out) override {
    if (!NextArrival(&out->arrival)) return false;
    out->id = index_++;
    // Read set: 1 + Geometric(extra_item_p) distinct items.
    out->items.clear();
    out->items.push_back(DrawItem());
    while (static_cast<int>(out->items.size()) < p_.max_items_per_query &&
           item_rng_.Bernoulli(p_.extra_item_p)) {
      const ItemId extra = DrawItem();
      if (std::find(out->items.begin(), out->items.end(), extra) ==
          out->items.end()) {
        out->items.push_back(extra);
      }
    }
    out->exec = std::max<SimDuration>(1, MillisToSim(NextExecMs()));
    out->freshness_req = p_.freshness_req;
    out->preference_class =
        p_.num_preference_classes > 1
            ? static_cast<int>(
                  item_rng_.UniformInt(0, p_.num_preference_classes - 1))
            : 0;
    out->relative_deadline = std::max<SimDuration>(
        1, MillisToSim(deadline_rng_.Uniform(deadline_lo_ms_,
                                             deadline_hi_ms_)));
    return true;
  }

 private:
  /// Temporal locality: with probability locality_p, an item of the
  /// working set, a ring of recent fresh draws; otherwise a fresh
  /// Zipf-popular item, which joins the ring.
  ItemId DrawItem() {
    if (!working_set_.empty() && item_rng_.Bernoulli(p_.locality_p)) {
      return working_set_[static_cast<size_t>(item_rng_.UniformInt(
          0, static_cast<int64_t>(working_set_.size()) - 1))];
    }
    const ItemId fresh = zipf_.Sample(item_rng_);
    if (static_cast<int>(working_set_.size()) < p_.working_set_size) {
      working_set_.push_back(fresh);
    } else if (p_.working_set_size > 0) {
      working_set_[ws_cursor_] = fresh;
      ws_cursor_ = (ws_cursor_ + 1) % working_set_.size();
    }
    return fresh;
  }

  const QueryTraceParams p_;
  const ZipfSampler zipf_;
  const double horizon_s_;
  const double exec_mu_;
  const double deadline_lo_ms_;
  const double deadline_hi_ms_;
  Rng arrival_rng_;
  Rng item_rng_;
  Rng exec_rng_;
  Rng deadline_rng_;
  bool in_burst_ = false;
  double t_s_ = 0.0;  // MMPP clock, seconds
  double state_end_s_ = 0.0;
  std::vector<ItemId> working_set_;
  size_t ws_cursor_ = 0;
  TxnId index_ = 0;
};

/// The one query source behind GenerateQueryTrace and
/// MakeStreamingWorkload. Construction runs the arrival process and the
/// service-demand draw once, to count the queries and fix the deadline
/// bounds (paper: [avg RT, 10 x max RT]); every cursor then replays the
/// identical trace.
class StreamingQuerySource final : public QuerySource {
 public:
  explicit StreamingQuerySource(const QueryTraceParams& p) : p_(p) {
    QueryStream pass(p, 0.0, 0.0);
    double exec_sum_ms = 0.0;
    double exec_max_ms = 0.0;
    for (SimTime t = 0; pass.NextArrival(&t); ++count_) {
      const double exec_ms = pass.NextExecMs();
      exec_sum_ms += exec_ms;
      exec_max_ms = std::max(exec_max_ms, exec_ms);
    }
    if (count_ == 0) return;
    lo_ms_ = p.deadline_lo_factor * (exec_sum_ms / static_cast<double>(count_));
    hi_ms_ = std::max(lo_ms_ + 1e-9, p.deadline_hi_factor * exec_max_ms);
  }

  int64_t count() const override { return count_; }

  std::unique_ptr<QueryCursor> NewCursor() const override {
    return std::make_unique<QueryStream>(p_, lo_ms_, hi_ms_);
  }

 private:
  const QueryTraceParams p_;
  int64_t count_ = 0;
  double lo_ms_ = 0.0;
  double hi_ms_ = 0.0;
};

}  // namespace

Status ValidateQueryTraceParams(const QueryTraceParams& p) {
  const std::pair<bool, std::string> rules[] = {
      {p.num_items <= 0, "num_items <= 0"},
      {p.duration <= 0, "duration <= 0"},
      {p.base_rate_hz <= 0.0, "base rate <= 0"},
      {p.burst_rate_multiplier < 1.0, "burst multiplier < 1"},
      {p.mean_normal_sojourn_s <= 0.0 || p.mean_burst_sojourn_s <= 0.0,
       "sojourn times must be positive"},
      {p.zipf_s < 0.0, "zipf_s < 0"},
      {p.locality_p < 0.0 || p.locality_p >= 1.0, "locality_p outside [0,1)"},
      {p.extra_item_p < 0.0 || p.extra_item_p >= 1.0,
       "extra_item_p outside [0,1)"},
      {p.max_items_per_query < 1, "max_items_per_query < 1"},
      {p.num_preference_classes < 1 ||
           p.num_preference_classes > kMaxPreferenceClasses,
       "num_preference_classes outside [1, " +
           std::to_string(kMaxPreferenceClasses) + "]"},
      {p.exec_min_ms <= 0.0 || p.exec_max_ms < p.exec_min_ms ||
           p.exec_median_ms <= 0.0 || p.exec_sigma < 0.0,
       "bad execution-time parameters"},
      {p.deadline_lo_factor <= 0.0 ||
           p.deadline_hi_factor < p.deadline_lo_factor,
       "bad deadline factors"},
      {p.freshness_req < 0.0 || p.freshness_req > 1.0,
       "freshness_req outside [0,1]"},
  };
  for (const auto& [broken, why] : rules) {
    if (broken) return Status::InvalidArgument(why);
  }
  return Status::Ok();
}

StatusOr<Workload> GenerateQueryTrace(const QueryTraceParams& p) {
  auto w = MakeStreamingWorkload(p);
  if (!w.ok()) return w;
  w->queries.reserve(static_cast<size_t>(w->QueryCount()));
  const std::unique_ptr<QueryCursor> cursor = w->NewQueryCursor();
  for (QueryRequest q; cursor->Next(&q);) w->queries.push_back(std::move(q));
  w->query_source = nullptr;
  w->query_trace_name = "cello-like";
  return w;
}

StatusOr<Workload> MakeStreamingWorkload(const QueryTraceParams& p) {
  Status s = ValidateQueryTraceParams(p);
  if (!s.ok()) return s;
  Workload w;
  w.num_items = p.num_items;
  w.duration = p.duration;
  w.query_trace_name = "cello-like (streamed)";
  w.query_source = std::make_shared<const StreamingQuerySource>(p);
  return w;
}

}  // namespace unitdb
