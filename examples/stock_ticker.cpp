// Stock ticker scenario — the paper's motivating example (Section 1): a
// web-database server ingesting periodic stock ticks while users query
// moving averages of their portfolios under response-time guarantees
// ("modern stock trading web sites offer guarantees, e.g. 2 seconds").
//
// We build the workload by hand rather than with the trace generator:
//  * 400 symbols; the "S&P-40" head tick every 1-3 s, the tail every 10-60 s
//  * portfolio queries read 1-6 symbols, deadline fixed at 2 s (the E*Trade
//    guarantee), freshness requirement 0.9
//  * a market-open flash crowd multiplies the query rate 20x for 30 s
//
// Compares UNIT with the baselines, then reruns UNIT with user preferences
// saying "a late answer is worse than a rejection" (high C_fm).
//
// Usage: stock_ticker [duration_s=600] [seed=17]
// An unknown key exits 1 with INVALID_ARGUMENT.

#include <iostream>
#include <vector>

#include "unit/common/config.h"
#include "unit/common/rng.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"

namespace {

using namespace unitdb;

Workload BuildMarket(double duration_s, uint64_t seed) {
  Workload w;
  w.num_items = 400;
  w.duration = SecondsToSim(duration_s);
  w.query_trace_name = "stock-portfolios";
  w.update_trace_name = "stock-ticks";

  Rng rng(seed);
  Rng tick_rng = rng.Fork();
  Rng query_rng = rng.Fork();

  // Tick feeds: hot symbols update fast, the tail slowly. Applying a tick
  // re-computes the symbol's derived views (moving averages): 5-20 ms.
  for (ItemId s = 0; s < w.num_items; ++s) {
    ItemUpdateSpec spec;
    spec.item = s;
    const double period_s = s < 40 ? tick_rng.Uniform(1.0, 3.0)
                                   : tick_rng.Uniform(10.0, 60.0);
    spec.ideal_period = SecondsToSim(period_s);
    spec.update_exec = MillisToSim(tick_rng.Uniform(5.0, 20.0));
    spec.phase = static_cast<SimTime>(
        tick_rng.Uniform(0.0, static_cast<double>(spec.ideal_period)));
    w.updates.push_back(spec);
  }

  // Portfolio queries: Poisson base rate 10/s; market-open flash crowd
  // (20x) during [60s, 90s). Deadline fixed at the 2-second guarantee.
  const ZipfSampler popularity(w.num_items, 1.0);
  double t = 0.0;
  TxnId id = 0;
  while (t < duration_s) {
    const bool crowd = t >= 60.0 && t < 90.0;
    t += query_rng.Exponential(1.0 / (crowd ? 200.0 : 10.0));
    if (t >= duration_s) break;
    QueryRequest q;
    q.id = id++;
    q.arrival = SecondsToSim(t);
    q.exec = MillisToSim(query_rng.Uniform(5.0, 40.0));
    q.relative_deadline = SecondsToSim(2.0);
    q.freshness_req = 0.9;
    const int positions = 1 + static_cast<int>(query_rng.UniformInt(0, 5));
    for (int k = 0; k < positions; ++k) {
      const ItemId sym = popularity.Sample(query_rng);
      if (std::find(q.items.begin(), q.items.end(), sym) == q.items.end()) {
        q.items.push_back(sym);
      }
    }
    w.queries.push_back(std::move(q));
  }
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  auto config = Config::ParseArgs(argc, argv);
  if (!config.ok()) {
    std::cerr << config.status().ToString() << "\n";
    return 1;
  }
  if (Status s = config->ExpectKeys({"duration_s", "seed"}); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  const double duration_s = config->GetDouble("duration_s", 600.0);
  const uint64_t seed = config->GetInt("seed", 17);
  if (Status s = config->CheckNumbers(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  Workload market = BuildMarket(duration_s, seed);
  std::cout << "stock ticker: " << market.queries.size() << " portfolio "
            << "queries, " << market.TotalSourceUpdates() << " ticks ("
            << FmtPercent(market.UpdateUtilization()) << " update CPU, "
            << FmtPercent(market.QueryUtilization()) << " query CPU), "
            << "2s deadline guarantee, flash crowd at t=60s\n\n";

  auto results =
      RunPolicies(market, {"unit", "imu", "odu", "qmf"});
  if (!results.ok()) {
    std::cerr << results.status().ToString() << "\n";
    return 1;
  }
  TextTable table;
  table.SetHeader({"policy", "USM", "success", "rejected", "late", "stale",
                   "p95 RT(s)... mean", "ticks applied"});
  for (const auto& r : *results) {
    const auto& c = r.metrics.counts;
    table.AddRow({r.policy, Fmt(r.usm), FmtPercent(c.SuccessRatio()),
                  FmtPercent(c.RejectionRatio()), FmtPercent(c.DmfRatio()),
                  FmtPercent(c.DsfRatio()),
                  Fmt(r.metrics.query_response_s.mean(), 3),
                  std::to_string(r.metrics.update_commits)});
  }
  table.Print(std::cout);

  // Traders hate late fills more than polite rejections: high C_fm.
  std::cout << "\nwith trader preferences (C_fm=4 > C_r=2, C_fs=2):\n";
  const UsmWeights trader{1.0, 2.0, 4.0, 2.0};
  auto tuned =
      RunPolicies(market, {"unit", "imu", "odu", "qmf"}, {.weights = trader});
  if (!tuned.ok()) {
    std::cerr << tuned.status().ToString() << "\n";
    return 1;
  }
  TextTable t2;
  t2.SetHeader({"policy", "USM", "success", "rejected", "late", "stale"});
  for (const auto& r : *tuned) {
    const auto& c = r.metrics.counts;
    t2.AddRow({r.policy, Fmt(r.usm), FmtPercent(c.SuccessRatio()),
               FmtPercent(c.RejectionRatio()), FmtPercent(c.DmfRatio()),
               FmtPercent(c.DsfRatio())});
  }
  t2.Print(std::cout);
  return 0;
}
