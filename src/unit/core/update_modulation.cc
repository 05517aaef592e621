#include "unit/core/update_modulation.h"

#include <algorithm>
#include <cmath>

namespace unitdb {

UpdateModulator::UpdateModulator(int num_items,
                                 const ModulationParams& params)
    : params_(params),
      sampler_(num_items),
      stale_hits_(num_items, 0),
      last_event_(num_items, 0) {}

namespace {

std::vector<bool> HasSource(const Database& db) {
  std::vector<bool> has_source(static_cast<size_t>(db.num_items()));
  for (ItemId i = 0; i < db.num_items(); ++i) {
    has_source[static_cast<size_t>(i)] = db.item(i).ideal_period < kNoUpdates;
  }
  return has_source;
}

}  // namespace

UpdateModulator::UpdateModulator(const Database& db,
                                 const ModulationParams& params)
    : params_(params),
      sampler_(HasSource(db)),
      stale_hits_(db.num_items(), 0),
      last_event_(db.num_items(), 0) {}

double UpdateModulator::DecayedTicket(ItemId item, SimTime now) {
  double t = sampler_.ticket(item);
  if (params_.time_decay) {
    const double dt_s = SimToSeconds(now - last_event_[item]);
    if (dt_s > 0.0 && params_.forget_interval_s > 0.0) {
      t *= std::pow(params_.c_forget, dt_s / params_.forget_interval_s);
    }
    last_event_[item] = now;
    return t;
  }
  // Literal per-event reading of Eq. 8.
  return t * params_.c_forget;
}

void UpdateModulator::OnQueryAccess(ItemId item, const Transaction& q,
                                    SimTime now) {
  // Eq. 6: DT_j = qe_i / qt_i (scaled, see ModulationParams::dt_scale);
  // Eq. 8: T_j = T_j * C_forget - DT_j.
  const double dt = params_.dt_scale * q.CpuUtilizationShare();
  sampler_.SetTicket(
      item, std::max(params_.ticket_floor, DecayedTicket(item, now) - dt));
}

double UpdateModulator::SigmoidIncrease(double exec_s) const {
  // Eq. 7 (see DESIGN.md §4 on the OCR ambiguity): logistic of how far this
  // update's execution time sits above the average, scaled to be
  // outlier-robust.
  const double avg = update_exec_s_.mean();
  double scale = params_.sigmoid_scale;
  if (scale <= 0.0) {
    scale = update_exec_s_.stddev();
    if (scale <= 1e-12) scale = std::max(avg, 1e-6);
  }
  return 1.0 / (1.0 + std::exp(-(exec_s - avg) / scale));
}

void UpdateModulator::OnStaleAccess(ItemId item) { ++stale_hits_[item]; }

void UpdateModulator::OnDegradedAccess(ItemId item) { ++stale_hits_[item]; }

void UpdateModulator::OnUpdateArrival(ItemId item, SimDuration exec,
                                      SimTime now) {
  const double exec_s = SimToSeconds(exec);
  update_exec_s_.Add(exec_s);
  const double it_j = SigmoidIncrease(exec_s);
  sampler_.SetTicket(item, DecayedTicket(item, now) + it_j);
}

void UpdateModulator::EmitPeriodChange(ItemId item, SimDuration from,
                                       SimDuration to, const char* cause,
                                       SimTime now) {
  if (trace_ == nullptr || to == from) return;
  TraceEvent e;
  e.time = now;
  e.type = TraceEventType::kPeriodChange;
  e.item = item;
  e.period_from = from;
  e.period_to = to;
  e.set_reason(cause);
  trace_->Emit(e);
}

void UpdateModulator::Degrade(Database& db, Rng& rng, SimTime now) {
  ++degrade_signals_;
  const int batch = params_.degrade_batch > 0 ? params_.degrade_batch
                                              : sampler_.eligible_count();
  // A signal only stretches periods, so every pick is drawn from the same
  // tickets: the sampler may throw the batch's darts in groups.
  sampler_.SampleBatch(rng, batch, [&](int victim) {
    DataItemState& item = db.mutable_item(victim);
    const SimDuration before = item.current_period;
    const double cap =
        static_cast<double>(item.ideal_period) * params_.max_stretch;
    const double stretched =
        std::min(cap, static_cast<double>(item.current_period) *
                          (1.0 + params_.c_du));
    db.SetCurrentPeriod(victim, static_cast<SimDuration>(stretched));
    EmitPeriodChange(victim, before, item.current_period, "degrade", now);
    ++total_picks_;
  });
}

std::vector<ItemId> UpdateModulator::Upgrade(Database& db, SimTime now) {
  ++upgrade_signals_;
  std::vector<ItemId> touched;
  for (ItemId i = 0; i < db.num_items(); ++i) {
    const DataItemState& item = db.item(i);
    if (item.ideal_period >= kNoUpdates ||
        item.current_period <= item.ideal_period) {
      stale_hits_[i] = 0;
      continue;
    }
    const SimDuration before = item.current_period;
    if (params_.selective_upgrade) {
      if (stale_hits_[i] == 0) continue;
      stale_hits_[i] = 0;
      if (sampler_.ticket(i) <= 0.0) {
        // Demand-heavy item (accesses outweigh updates): demonstrably live,
        // restore its source rate outright.
        db.SetCurrentPeriod(i, item.ideal_period);
      } else {
        // Over-updated item (updates outweigh accesses — the paper's
        // "inherently stable data needs few updates" holds in reverse
        // here): walk it back gradually per Eq. 10; the buffered newest
        // value the caller applies already repairs the observed staleness.
        db.SetCurrentPeriod(
            i, std::max(item.ideal_period,
                        static_cast<SimDuration>(
                            static_cast<double>(item.current_period) *
                            params_.c_uu)));
      }
      EmitPeriodChange(i, before, item.current_period, "upgrade", now);
      touched.push_back(i);
      continue;
    }
    stale_hits_[i] = 0;
    const double current = static_cast<double>(item.current_period);
    const double ideal = static_cast<double>(item.ideal_period);
    const double next = params_.linear_upgrade
                            ? current - params_.c_uu * ideal
                            : current * params_.c_uu;
    db.SetCurrentPeriod(
        i, std::max(item.ideal_period, static_cast<SimDuration>(next)));
    EmitPeriodChange(i, before, item.current_period, "upgrade", now);
    touched.push_back(i);
  }
  return touched;
}

}  // namespace unitdb
