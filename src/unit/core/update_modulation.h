#ifndef UNIT_CORE_UPDATE_MODULATION_H_
#define UNIT_CORE_UPDATE_MODULATION_H_

#include <cstdint>
#include <vector>

#include "unit/common/rng.h"
#include "unit/common/stats.h"
#include "unit/core/lottery.h"
#include "unit/db/database.h"
#include "unit/obs/trace_sink.h"
#include "unit/txn/transaction.h"

namespace unitdb {

/// Tunables of the paper's Update Frequency Modulation (Section 3.4).
struct ModulationParams {
  double c_forget = 0.9;  ///< forgetting factor on ticket values (Eq. 8)
  /// Forgetting cadence. The paper applies C_forget per ticket *event*,
  /// which couples protection memory to event rates (an item with sparse
  /// updates would stay protected for thousands of seconds after its last
  /// access). Time-based decay — multiply by C_forget once per
  /// forget_interval_s of simulated time, applied lazily — keeps the memory
  /// horizon (~ half-life 66 s at the defaults) independent of rates.
  /// Set time_decay=false for the literal per-event reading (ablation).
  bool time_decay = true;
  double forget_interval_s = 10.0;
  double c_du = 0.25;     ///< degrade step: pc *= (1 + C_du) (Eq. 9)
  /// Upgrade step (Eq. 10). The OCR'd equation is ambiguous between
  /// pc = max(pi, pc - C_uu * pi)  (linear walk-back, the default) and
  /// pc = max(pi, pc * C_uu)       (halving); see DESIGN.md §4 and the
  /// linear_upgrade switch below.
  double c_uu = 0.5;
  /// Selects the linear reading of Eq. 10 (gradual restore); false (default)
  /// selects the multiplicative one, which restores heavily-degraded items
  /// in logarithmically many signals.
  bool linear_upgrade = false;
  /// Calibration factor on Eq. 6's DT = qe/qt. With web-scale deadlines qt
  /// >> qe, raw DT (~0.01) cannot counterweigh IT (~0.5), erasing the
  /// query-protection effect the paper describes. The scale is chosen so a
  /// single access outweighs a typical IT contribution severalfold: one
  /// user observation of an item shields it from degradation until its
  /// update inflow rebuilds the ticket — which is what a freshness
  /// economics argument prescribes (keeping a queried item fresh costs
  /// ue/pi CPU per second, far below the USM value of fresh accesses).
  /// Ablated in `bench_grid figure=a4`.
  double dt_scale = 100.0;
  /// Lottery picks per Degrade-Update signal; 0 = one pick per item the
  /// lottery can pick (an item with an update source) on average. The paper
  /// leaves the batch size unspecified; roughly one pick per item per
  /// signal lets stretches compound faster than upgrade signals reset them,
  /// stratifying items by ticket weight (see DESIGN.md §4 and the A1/A4
  /// ablations).
  int degrade_batch = 0;
  /// Safety cap: pc <= pi * max_stretch.
  double max_stretch = 1024.0;
  /// Scale of the sigmoid in Eq. 7; <= 0 selects the running stddev of
  /// update execution times (fallback: their mean).
  double sigmoid_scale = 0.0;
  /// Selective upgrades: an Upgrade-Update signal restores only the items
  /// whose staleness users actually observed (DSF read sets) since the last
  /// upgrade, instead of every degraded item. Restoring untouched cold items
  /// would re-create the very load the Degrade signals shed, so the global
  /// variant (false) thrashes; kept for `bench_grid figure=a4`.
  bool selective_upgrade = true;
  /// Lower clamp on ticket values. The lottery weighs items by
  /// (ticket - min ticket); a single deeply negative outlier (one very hot
  /// item) would inflate every weight and flatten selectivity, so actively
  /// queried items bottom out here and carry (near-)zero weight instead.
  /// At 0.0 (default) the min-shift is exact: weight == ticket.
  double ticket_floor = 0.0;
};

/// Ticket-driven update frequency modulation:
///  * every committed query access to d_j lowers its ticket by
///    DT_j = qe_i / qt_i (Eq. 6) — heavily-queried, cpu-hungry readers
///    shield their items from degradation;
///  * every committed update on d_j raises its ticket by a sigmoid of how
///    much longer than average the update runs (Eq. 7) — expensive,
///    frequent updaters attract degradation;
///  * both effects decay with C_forget (Eq. 8).
/// Degrade signals stretch the lottery-chosen victims' current periods
/// (Eq. 9); Upgrade signals walk every degraded period back toward the
/// ideal (Eq. 10).
class UpdateModulator {
 public:
  /// Every one of the `num_items` items takes part in the lottery.
  UpdateModulator(int num_items, const ModulationParams& params);
  /// Items of `db` without an update source never take part in the lottery.
  UpdateModulator(const Database& db, const ModulationParams& params);

  /// Query effect (Eq. 6 + Eq. 8): committed query `q` accessed `item`.
  void OnQueryAccess(ItemId item, const Transaction& q, SimTime now);

  /// Records that a user observed `item` stale (part of a DSF read set);
  /// selective upgrades restore exactly these items.
  void OnStaleAccess(ItemId item);

  /// Records demand for a currently-degraded item (any access, fresh or
  /// not): the next Upgrade signal restores it before more misses accrue.
  void OnDegradedAccess(ItemId item);

  /// Update effect (Eq. 7 + Eq. 8): an update for `item` arrived from the
  /// source (applied or not); its execution time is `exec`.
  void OnUpdateArrival(ItemId item, SimDuration exec, SimTime now);

  /// Emit a "period-change" trace event for every period the modulator
  /// actually changes (nullptr = off; that is the default).
  void set_trace(TraceSink* trace) { trace_ = trace; }

  /// One Degrade-Update control signal: `degrade_batch` lottery picks, each
  /// stretching its victim's current period by (1 + C_du). `now` only
  /// timestamps trace events; it does not affect modulation.
  void Degrade(Database& db, Rng& rng, SimTime now = 0);

  /// One Upgrade-Update control signal. Selective mode restores exactly the
  /// items users demanded (stale or degraded read sets) to their source
  /// rate; global mode shrinks every degraded period by C_uu, clamped at
  /// the ideal period. Returns the items whose period was restored/shrunk,
  /// so the caller can re-apply the buffered newest value (push feeds keep
  /// delivering values even while their application is shed). `now` only
  /// timestamps trace events.
  std::vector<ItemId> Upgrade(Database& db, SimTime now = 0);

  double ticket(ItemId item) const { return sampler_.ticket(item); }
  int64_t stale_hits(ItemId item) const { return stale_hits_[item]; }
  const LotterySampler& sampler() const { return sampler_; }
  int64_t degrade_signals() const { return degrade_signals_; }
  int64_t upgrade_signals() const { return upgrade_signals_; }
  int64_t total_picks() const { return total_picks_; }

 private:
  double SigmoidIncrease(double exec_s) const;

  double DecayedTicket(ItemId item, SimTime now);

  void EmitPeriodChange(ItemId item, SimDuration from, SimDuration to,
                        const char* cause, SimTime now);

  TraceSink* trace_ = nullptr;
  ModulationParams params_;
  LotterySampler sampler_;
  std::vector<int64_t> stale_hits_;
  std::vector<SimTime> last_event_;
  RunningStat update_exec_s_;  ///< running stats of update execution times
  int64_t degrade_signals_ = 0;
  int64_t upgrade_signals_ = 0;
  int64_t total_picks_ = 0;
};

}  // namespace unitdb

#endif  // UNIT_CORE_UPDATE_MODULATION_H_
