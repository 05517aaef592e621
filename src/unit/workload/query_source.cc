#include "unit/workload/query_source.h"

#include <algorithm>
#include <cmath>

namespace unitdb {

std::unique_ptr<QueryCursor> VectorQuerySource::NewCursor() const {
  return std::make_unique<VectorCursor>(&queries_);
}

QueryStreamCalibration CalibrateQueryStream(const QueryTraceParams& p) {
  // Mirrors GenerateQueryTrace exactly, minus storage. The arrival and
  // execution streams are independent forks, so replaying them here does not
  // disturb the item/deadline streams the live cursor will consume, and the
  // draw + accumulation order below matches the materialized generator
  // bit-for-bit (same Exponential sequence; exec_sum_ms accumulated in index
  // order).
  Rng rng(p.seed);
  Rng arrival_rng = rng.Fork();
  rng.Fork();  // item stream: unused during calibration
  Rng exec_rng = rng.Fork();

  // --- count arrivals: two-state MMPP, identical to the materialized loop ---
  const double burst_rate = p.base_rate_hz * p.burst_rate_multiplier;
  bool in_burst = false;
  double t_s = 0.0;
  double state_end_s = arrival_rng.Exponential(p.mean_normal_sojourn_s);
  const double horizon_s = SimToSeconds(p.duration);
  int64_t n = 0;
  while (t_s < horizon_s) {
    const double rate = in_burst ? burst_rate : p.base_rate_hz;
    const double gap = arrival_rng.Exponential(1.0 / rate);
    if (t_s + gap >= state_end_s) {
      t_s = state_end_s;
      in_burst = !in_burst;
      state_end_s = t_s + arrival_rng.Exponential(in_burst
                                                      ? p.mean_burst_sojourn_s
                                                      : p.mean_normal_sojourn_s);
      continue;
    }
    t_s += gap;
    if (t_s < horizon_s) ++n;
  }

  QueryStreamCalibration cal;
  cal.count = n;
  if (n == 0) return cal;

  // --- replay service demands for the deadline bounds ---
  const double exec_mu = std::log(p.exec_median_ms);
  double exec_sum_ms = 0.0;
  double exec_max_ms_seen = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double exec_ms = std::clamp(
        exec_rng.LogNormal(exec_mu, p.exec_sigma), p.exec_min_ms,
        p.exec_max_ms);
    exec_sum_ms += exec_ms;
    exec_max_ms_seen = std::max(exec_max_ms_seen, exec_ms);
  }
  const double mean_ms = exec_sum_ms / static_cast<double>(n);
  cal.deadline_lo_ms = p.deadline_lo_factor * mean_ms;
  cal.deadline_hi_ms =
      std::max(cal.deadline_lo_ms + 1e-9,
               p.deadline_hi_factor * exec_max_ms_seen);
  return cal;
}

QueryStream::QueryStream(const QueryTraceParams& params,
                         const QueryStreamCalibration& calibration)
    : params_(params),
      calibration_(calibration),
      zipf_(params.num_items, params.zipf_s) {
  Rng rng(params_.seed);
  arrival_rng_ = rng.Fork();
  item_rng_ = rng.Fork();
  exec_rng_ = rng.Fork();
  deadline_rng_ = rng.Fork();
  horizon_s_ = SimToSeconds(params_.duration);
  state_end_s_ = arrival_rng_.Exponential(params_.mean_normal_sojourn_s);
  exec_mu_ = std::log(params_.exec_median_ms);
  if (params_.working_set_size > 0) {
    working_set_.reserve(static_cast<size_t>(params_.working_set_size));
  }
}

void QueryStream::Touch(ItemId item) {
  if (params_.working_set_size <= 0) return;
  if (static_cast<int>(working_set_.size()) < params_.working_set_size) {
    working_set_.push_back(item);
  } else {
    working_set_[ws_cursor_] = item;
    ws_cursor_ = (ws_cursor_ + 1) % working_set_.size();
  }
}

ItemId QueryStream::DrawItem() {
  if (!working_set_.empty() && item_rng_.Bernoulli(params_.locality_p)) {
    return working_set_[static_cast<size_t>(item_rng_.UniformInt(
        0, static_cast<int64_t>(working_set_.size()) - 1))];
  }
  const ItemId fresh = zipf_.Sample(item_rng_);
  Touch(fresh);
  return fresh;
}

bool QueryStream::NextArrival(SimTime* arrival) {
  const double burst_rate = params_.base_rate_hz * params_.burst_rate_multiplier;
  while (t_s_ < horizon_s_) {
    const double rate = in_burst_ ? burst_rate : params_.base_rate_hz;
    const double gap = arrival_rng_.Exponential(1.0 / rate);
    if (t_s_ + gap >= state_end_s_) {
      // State switch; no arrival in the truncated residual (memoryless).
      t_s_ = state_end_s_;
      in_burst_ = !in_burst_;
      state_end_s_ =
          t_s_ + arrival_rng_.Exponential(in_burst_
                                              ? params_.mean_burst_sojourn_s
                                              : params_.mean_normal_sojourn_s);
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

bool QueryStream::Next(QueryRequest* out) {
  SimTime arrival = 0;
  if (!NextArrival(&arrival)) return false;

  out->id = static_cast<TxnId>(index_);
  out->arrival = arrival;
  // Read set: 1 + Geometric(extra_item_p) distinct items, drawn with
  // working-set temporal locality over the Zipf popularity distribution —
  // the same draws, in the same order, as the materialized per-query loop.
  out->items.clear();
  out->items.push_back(DrawItem());
  while (static_cast<int>(out->items.size()) < params_.max_items_per_query &&
         item_rng_.Bernoulli(params_.extra_item_p)) {
    const ItemId extra = DrawItem();
    if (std::find(out->items.begin(), out->items.end(), extra) ==
        out->items.end()) {
      out->items.push_back(extra);
    }
  }
  const double exec_ms = std::clamp(
      exec_rng_.LogNormal(exec_mu_, params_.exec_sigma), params_.exec_min_ms,
      params_.exec_max_ms);
  out->exec = std::max<SimDuration>(1, MillisToSim(exec_ms));
  out->freshness_req = params_.freshness_req;
  out->preference_class = 0;
  if (params_.num_preference_classes > 1) {
    out->preference_class = static_cast<int>(
        item_rng_.UniformInt(0, params_.num_preference_classes - 1));
  }
  // The materialized generator assigns deadlines in a second pass, but from
  // an independent stream — drawing per query here yields the same value.
  out->relative_deadline = std::max<SimDuration>(
      1, MillisToSim(deadline_rng_.Uniform(calibration_.deadline_lo_ms,
                                           calibration_.deadline_hi_ms)));
  ++index_;
  return true;
}

StatusOr<std::shared_ptr<const StreamingQuerySource>> StreamingQuerySource::
    Make(const QueryTraceParams& params) {
  Status s = ValidateQueryTraceParams(params);
  if (!s.ok()) return s;
  return std::shared_ptr<const StreamingQuerySource>(
      new StreamingQuerySource(params, CalibrateQueryStream(params)));
}

std::unique_ptr<QueryCursor> StreamingQuerySource::NewCursor() const {
  return std::make_unique<QueryStream>(params_, calibration_);
}

StatusOr<Workload> MakeStreamingWorkload(const QueryTraceParams& params) {
  auto source = StreamingQuerySource::Make(params);
  if (!source.ok()) return source.status();
  Workload w;
  w.num_items = params.num_items;
  w.duration = params.duration;
  w.query_trace_name = "cello-like (streamed)";
  w.query_source = *source;
  return w;
}

void ConvertToStreamingWorkload(Workload* w) {
  w->query_source =
      std::make_shared<VectorQuerySource>(std::move(w->queries));
  w->queries.clear();
}

}  // namespace unitdb
