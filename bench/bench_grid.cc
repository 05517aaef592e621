// Reproduces the paper's tables and figures, the ablations around them and
// the extension figures. Each figure is a value: one or two grids of update
// traces x policies x named variants (a RunRequest each: USM weights, engine
// and policy parameters, a fault scenario), run through RunGrid
// (sim/experiment.h), plus a print function for its tables. So every figure
// takes jobs= and seeds=, and prints the same for any jobs= except its "grid
// wall-clock:" line.
//
// Usage: bench_grid [figure=all] [scale=1.0] [seed=42] [seeds=1] [jobs=0]
//                   [shards=0] [trace_dir=DIR] [trace_cell=NAME] [out=FILE]
//                   [scenario=FILE]
//   figure  table1 (Table 1), fig3..fig6 (Figs. 3-6, fig5 with Table 2),
//           a1..a5 (ablations A1-A5), hybrid (extension E+), fig7..fig9
//           (extensions: adaptivity under faults, closed-loop sessions,
//           result cache), or all of them
//   scale   trace-length multiplier (a5 defaults to 0.5, fig7..fig9 to 0.25)
//   seeds   replications per cell, at seeds ReplicationSeed(seed, i) (a5
//           defaults to 3); tables show their mean, fig4's panels show
//           replication 0 and a mean +/- stddev table follows
//   jobs    grid workers; 0 = one per hardware thread
//   shards  > 1 runs every cell on the sharded runner; table1 adds its
//           engine runs for any shards >= 1
//   trace_dir  re-runs replication 0 of every grid cell (table1 has none),
//           monolithic, writing a JSONL event trace (tools/trace_check's
//           input) and the window series to
//           DIR/<trace>-<policy>[-<variant>].jsonl / -series.csv;
//           trace_cell=NAME (e.g. med-unif) keeps one trace
//   out     fig7..fig9: also write the cells as JSON (compare_bench.py's)
//   scenario  fig7: a fault scenario file in place of the canned two
// fig7..fig9 exit 1 when a layer attached but off changes a run, and fig9
// when its largest cache saves under 20% of the engine events (EXPERIMENTS.md).

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "unit/common/fan_out.h"
#include "unit/common/stats.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"

namespace unitdb {
namespace {

/// One grid a figure ran: its spec, workloads and cells.
struct Panel {
  GridSpec spec;
  std::vector<Workload> workloads;    ///< MakeGridWorkloads order
  std::vector<GridCellResult> cells;  ///< RunGrid order

  int volumes() const { return static_cast<int>(spec.volumes.size()); }
  int traces() const {
    return volumes() * static_cast<int>(spec.distributions.size());
  }
  int variants() const { return static_cast<int>(spec.variants.size()); }
  int policies() const { return static_cast<int>(spec.policies.size()); }
  const GridCellResult& cell(int trace, int variant, int policy) const {
    return cells[static_cast<size_t>(
        (trace * variants() + variant) * policies() + policy)];
  }
  const Workload& workload(int trace, int replication) const {
    return workloads[static_cast<size_t>(trace * spec.replications +
                                         replication)];
  }
  /// Mean of `value(run, workload)` over the replications of a cell.
  template <typename Fn>
  double Mean(int trace, const GridCellResult& c, Fn value) const {
    RunningStat s;
    for (int i = 0; i < spec.replications; ++i) {
      s.Add(value(c.runs[static_cast<size_t>(i)], workload(trace, i)));
    }
    return s.mean();
  }
};

struct FigureRun {
  std::vector<Panel> panels;
  int jobs = 1;
  int shards = 0;
  std::string out;  ///< JSON path ("" = none)
  const bench::Args* args = nullptr;
};

struct Figure {
  const char* name;
  const char* title;
  /// Traces, policies and variants; scale, seeds, seed and shards come
  /// from the arguments.
  std::vector<GridSpec> panels;
  double scale;  ///< default scale=
  int seeds;     ///< default seeds=
  Status (*print)(const FigureRun&);
  bool json = false;  ///< takes out=
};

const std::vector<UpdateDistribution> kUniform = {
    UpdateDistribution::kUniform};
const std::vector<UpdateVolume> kMedium = {UpdateVolume::kMedium};

GridSpec Axes(std::vector<std::string> policies,
              std::vector<GridVariant> variants = {},
              std::vector<UpdateDistribution> distributions =
                  GridSpec().distributions,
              std::vector<UpdateVolume> volumes = GridSpec().volumes) {
  GridSpec spec;
  spec.volumes = std::move(volumes);
  spec.distributions = std::move(distributions);
  spec.policies = std::move(policies);
  spec.variants = std::move(variants);
  return spec;
}

/// One variant per value, named `name(value)`, that `set(variant, value)`
/// moves off the defaults.
template <typename T, typename Name, typename Set>
std::vector<GridVariant> Sweep(std::vector<T> values, Name name, Set set) {
  std::vector<GridVariant> out;
  for (const T& value : values) {
    GridVariant v{name(value), {}};
    set(v, value);
    out.push_back(std::move(v));
  }
  return out;
}

double MeanUsm(const GridCellResult& c) { return c.result.usm.mean(); }
double BaseSeedUsm(const GridCellResult& c) { return c.runs.front().usm; }

/// `label`, then each policy's USM on (trace, variant), then with `winner`
/// the policy with the highest (the first on a tie).
std::vector<std::string> UsmRow(std::string label, const Panel& p, int trace,
                                int variant,
                                double (*usm)(const GridCellResult&),
                                bool winner) {
  std::vector<std::string> row = {std::move(label)};
  double best = -1e9;
  std::string best_policy;
  for (int k = 0; k < p.policies(); ++k) {
    const GridCellResult& c = p.cell(trace, variant, k);
    row.push_back(Fmt(usm(c), 3));
    if (usm(c) > best) {
      best = usm(c);
      best_policy = c.result.policy;
    }
  }
  if (winner) row.push_back(best_policy);
  return row;
}

/// Share of the source updates that update modulation shed.
double Shed(const ExperimentResult& r, const Workload& w) {
  return static_cast<double>(r.metrics.updates_dropped) /
         static_cast<double>(std::max<int64_t>(w.TotalSourceUpdates(), 1));
}

void AddInto(std::vector<int64_t>& sum, const std::vector<int64_t>& add) {
  sum.resize(add.size(), 0);
  for (size_t i = 0; i < add.size(); ++i) sum[i] += add[i];
}

/// A per-item series in 32 runs of item ids, so it stays printable.
void PrintSeries(const std::string& label,
                 const std::vector<int64_t>& per_item) {
  constexpr size_t kBuckets = 32;
  std::vector<int64_t> sums(kBuckets, 0);
  for (size_t i = 0; i < per_item.size(); ++i) {
    sums[i * kBuckets / per_item.size()] += per_item[i];
  }
  std::cout << label;
  for (int64_t v : sums) std::cout << "," << v;
  std::cout << "\n";
}

Status PrintTable1(const FigureRun& run) {
  const Panel& p = run.panels[0];
  std::cout << "(paper: 6144 / 30000 / 61440 updates = 15% / 75% / 150% "
               "CPU;\n correlated traces target |rho| = 0.8 vs the query "
               "distribution)\n\n";
  TextTable table;
  table.SetHeader({"trace", "total updates", "update util", "query util",
                   "spearman(upd,qry)", "items w/ source"});
  for (int t = 0; t < p.traces(); ++t) {
    RunningStat updates, update_util, query_util, rho, sourced;
    for (int i = 0; i < p.spec.replications; ++i) {
      const Workload& w = p.workload(t, i);
      const auto accesses = w.QueryAccessCounts();
      const auto source = w.SourceUpdateCounts();
      updates.Add(static_cast<double>(w.TotalSourceUpdates()));
      update_util.Add(w.UpdateUtilization());
      query_util.Add(w.QueryUtilization());
      rho.Add(SpearmanCorrelation(
          std::vector<double>(source.begin(), source.end()),
          std::vector<double>(accesses.begin(), accesses.end())));
      sourced.Add(static_cast<double>(w.updates.size()));
    }
    table.AddRow({p.workload(t, 0).update_trace_name, Fmt(updates.mean(), 0),
                  FmtPercent(update_util.mean()),
                  FmtPercent(query_util.mean()), Fmt(rho.mean(), 3),
                  Fmt(sourced.mean(), 0)});
    if (t % p.volumes() == p.volumes() - 1) table.AddSeparator();
  }
  table.Print(std::cout);
  if (run.shards < 1) return Status::Ok();

  // Each trace under UNIT, parent-level (post-CrossShardJoin) accounting
  // with the naive weighting.
  GridSpec spec = p.spec;
  spec.policies = {"unit"};
  auto cells = RunGrid(spec, p.workloads, run.jobs);
  if (!cells.ok()) return cells.status();
  std::cout << "\n--- engine runs (unit policy, shards=" << run.shards
            << ") ---\n";
  TextTable runs;
  runs.SetHeader({"trace", "submitted", "success", "rejected", "dmf", "dsf",
                  "usm"});
  for (const GridCellResult& c : *cells) {
    std::vector<std::string> row = {c.result.trace};
    for (int64_t OutcomeCounts::*count :
         {&OutcomeCounts::submitted, &OutcomeCounts::success,
          &OutcomeCounts::rejected, &OutcomeCounts::dmf,
          &OutcomeCounts::dsf}) {
      RunningStat s;
      for (const ExperimentResult& r : c.runs) {
        s.Add(static_cast<double>(r.metrics.counts.*count));
      }
      row.push_back(Fmt(s.mean(), 0));
    }
    row.push_back(Fmt(c.result.usm.mean(), 3));
    runs.AddRow(std::move(row));
  }
  runs.Print(std::cout);
  return Status::Ok();
}

Status PrintFig3(const FigureRun& run) {
  const Panel& p = run.panels[0];  // UNIT on med-unif, med-neg
  const int reps = p.spec.replications;
  const char* titles[] = {"Fig 3(b): med-unif, original vs UNIT degraded",
                          "Fig 3(c): med-neg, original vs UNIT degraded"};
  for (int t = 0; t < p.traces(); ++t) {
    // Per-item counts are summed over the replications.
    std::vector<int64_t> accesses, source, applied;
    int64_t total_source = 0;
    for (int i = 0; i < reps; ++i) {
      const Workload& w = p.workload(t, i);
      AddInto(accesses, w.QueryAccessCounts());
      AddInto(source, w.SourceUpdateCounts());
      AddInto(applied, p.cell(t, 0, 0).runs[static_cast<size_t>(i)]
                           .metrics.per_item_applied_updates);
      total_source += w.TotalSourceUpdates();
    }
    if (t == 0) {  // every update trace shares the query trace
      std::cout << "\n--- Fig 3(a): query accesses per item ---\n";
      PrintSeries("query_accesses", accesses);
    }
    std::cout << "\n--- " << titles[t] << " (trace "
              << p.workload(t, 0).update_trace_name << ") ---\n";
    PrintSeries("source_updates", source);
    PrintSeries("unit_applied", applied);
    const int64_t kept =
        std::accumulate(applied.begin(), applied.end(), int64_t{0});
    std::cout << "dropped: "
              << FmtPercent(1.0 - static_cast<double>(kept) /
                                      static_cast<double>(
                                          std::max<int64_t>(total_source, 1)))
              << " of " << total_source << " source updates\n";

    // Keep-rate split by access class: the paper's observation (2) —
    // updates on cold-accessed, hot-updated data are dropped most.
    double kept_hot = 0, src_hot = 0, kept_cold = 0, src_cold = 0;
    for (size_t i = 0; i < accesses.size(); ++i) {
      (accesses[i] > 0 ? kept_hot : kept_cold) +=
          static_cast<double>(applied[i]);
      (accesses[i] > 0 ? src_hot : src_cold) += static_cast<double>(source[i]);
    }
    std::cout << "keep-rate on queried items:   "
              << FmtPercent(src_hot > 0 ? kept_hot / src_hot : 1.0) << "\n"
              << "keep-rate on unqueried items: "
              << FmtPercent(src_cold > 0 ? kept_cold / src_cold : 1.0)
              << "\n";
  }
  return Status::Ok();
}

Status PrintFig4(const FigureRun& run) {
  const Panel& p = run.panels[0];
  const char* panel_names[] = {"(a) uniform", "(b) positive correlation",
                               "(c) negative correlation"};
  for (int d = 0; d * p.volumes() < p.traces(); ++d) {
    std::cout << "\n--- Fig 4" << panel_names[d] << " ---\n";
    TextTable table;
    table.SetHeader({"trace", "imu", "odu", "qmf", "unit", "winner"});
    for (int t = d * p.volumes(); t < (d + 1) * p.volumes(); ++t) {
      table.AddRow(UsmRow(p.cell(t, 0, 0).result.trace, p, t, 0, BaseSeedUsm,
                          true));
      // ASCII bars mirroring the paper's grouped bar chart.
      for (int k = 0; k < p.policies(); ++k) {
        const GridCellResult& c = p.cell(t, 0, k);
        std::cout << "  " << c.result.trace << " " << c.result.policy << " "
                  << Bar(BaseSeedUsm(c), 1.0) << " " << Fmt(BaseSeedUsm(c), 3)
                  << "\n";
      }
    }
    std::cout << "\n";
    table.Print(std::cout);
  }
  if (p.spec.replications > 1) {
    std::cout << "\n--- multi-seed (" << p.spec.replications
              << " replications, mean +/- stddev) ---\n";
    TextTable reps;
    reps.SetHeader({"trace", "imu", "odu", "qmf", "unit"});
    for (int t = 0; t < p.traces(); ++t) {
      std::vector<std::string> row = {p.cell(t, 0, 0).result.trace};
      for (int k = 0; k < p.policies(); ++k) {
        const RunningStat& usm = p.cell(t, 0, k).result.usm;
        row.push_back(Fmt(usm.mean(), 3) + "+/-" + Fmt(usm.stddev(), 3));
      }
      reps.AddRow(std::move(row));
    }
    reps.Print(std::cout);
  }
  std::cout << "\npaper shape: UNIT leads or ties in every panel; IMU "
               "collapses at high volume;\nQMF trails ODU at uniform; IMU ~ "
               "ODU under positive correlation; ODU ~ UNIT\nunder negative "
               "correlation.\n";
  return Status::Ok();
}

Status PrintFig5(const FigureRun& run) {
  const char* regimes[] = {"penalties<1", "penalties>1"};
  const char* titles[] = {"Fig 5(a): penalties < 1", "Fig 5(b): penalties > 1"};
  std::cout << "\n--- Table 2: USM weights ---\n";
  TextTable weights;
  weights.SetHeader({"setting", "C_s", "C_r", "C_fm", "C_fs"});
  for (size_t r = 0; r < run.panels.size(); ++r) {
    if (r > 0) weights.AddSeparator();
    for (const GridVariant& v : run.panels[r].spec.variants) {
      const UsmWeights& w = v.request.weights;
      weights.AddRow({std::string(regimes[r]) + " " + v.name, Fmt(w.gain, 1),
                      Fmt(w.c_r, 1), Fmt(w.c_fm, 1), Fmt(w.c_fs, 1)});
    }
  }
  weights.Print(std::cout);

  for (size_t r = 0; r < run.panels.size(); ++r) {
    const Panel& p = run.panels[r];
    std::cout << "\n--- " << titles[r] << " (trace "
              << p.cells.front().result.trace << ") ---\n";
    TextTable table;
    table.SetHeader({"setting", "imu", "odu", "qmf", "unit", "winner"});
    double unit_min = 1e9, unit_max = -1e9;
    for (int v = 0; v < p.variants(); ++v) {
      table.AddRow(UsmRow(p.spec.variants[static_cast<size_t>(v)].name, p, 0,
                          v, MeanUsm, true));
      const double unit = MeanUsm(p.cell(0, v, 3));  // paper order's last
      unit_min = std::min(unit_min, unit);
      unit_max = std::max(unit_max, unit);
    }
    table.Print(std::cout);
    std::cout << "UNIT stability across settings: min=" << Fmt(unit_min, 3)
              << " max=" << Fmt(unit_max, 3)
              << " spread=" << Fmt(unit_max - unit_min, 3) << "\n";
  }
  std::cout << "\npaper shape: UNIT best in both regimes; QMF suffers most "
               "under high C_r\n(it rejects aggressively); IMU/ODU suffer "
               "under high C_fm (they miss deadlines).\n";
  return Status::Ok();
}

std::vector<std::string> Shares(std::string label, const ReplicatedResult& r) {
  return {std::move(label), FmtPercent(r.success_ratio.mean()),
          FmtPercent(r.rejection_ratio.mean()), FmtPercent(r.dmf_ratio.mean()),
          FmtPercent(r.dsf_ratio.mean())};
}

void PrintBars(const std::string& label, const ReplicatedResult& r) {
  std::cout << "  " << label << "  S " << Bar(r.success_ratio.mean(), 1.0, 30)
            << "  R " << Bar(r.rejection_ratio.mean(), 1.0, 10) << "  M "
            << Bar(r.dmf_ratio.mean(), 1.0, 10) << "  F "
            << Bar(r.dsf_ratio.mean(), 1.0, 10) << "\n";
}

Status PrintFig6(const FigureRun& run) {
  std::cout << "\n--- Fig 6(a): IMU / ODU / QMF (weight-insensitive) ---\n";
  TextTable a;
  a.SetHeader({"policy", "success", "rejection", "DMF", "DSF"});
  for (const GridCellResult& c : run.panels[0].cells) {
    a.AddRow(Shares(c.result.policy, c.result));
    PrintBars(c.result.policy, c.result);
  }
  a.Print(std::cout);

  std::cout << "\n--- Fig 6(b): UNIT under the Fig 5(a) weightings ---\n";
  TextTable b;
  b.SetHeader({"setting", "success", "rejection", "DMF", "DSF", "USM"});
  for (const GridCellResult& c : run.panels[1].cells) {
    std::vector<std::string> row = Shares(c.variant, c.result);
    row.push_back(Fmt(MeanUsm(c), 3));
    b.AddRow(std::move(row));
    PrintBars("unit/" + c.variant, c.result);
  }
  b.Print(std::cout);
  std::cout << "\npaper shape: (1) UNIT's success share tops the baselines; "
               "(2) UNIT's failure mix\nshifts away from whichever failure "
               "is priciest; (3) the baselines' decompositions\nare "
               "identical across weightings, with QMF showing a large "
               "rejection share.\n";
  return Status::Ok();
}

Status PrintA1(const FigureRun& run) {
  const Panel& p = run.panels[0];  // UNIT on med-unif, med-neg
  for (int t = 0; t < p.traces(); ++t) {
    std::cout << "\n--- trace " << p.workload(t, 0).update_trace_name
              << " ---\n";
    TextTable table;
    table.SetHeader({"C_du", "USM", "success", "rejected", "dmf", "dsf",
                     "updates shed", "cpu util"});
    for (int v = 0; v < p.variants(); ++v) {
      const GridCellResult& c = p.cell(t, v, 0);
      std::vector<std::string> row = Shares(c.variant, c.result);
      row.insert(row.begin() + 1, Fmt(MeanUsm(c), 3));
      row.push_back(FmtPercent(p.Mean(t, c, Shed)));
      row.push_back(FmtPercent(
          p.Mean(t, c, [](const ExperimentResult& r, const Workload&) {
            return r.metrics.Utilization();
          })));
      table.AddRow(std::move(row));
    }
    table.Print(std::cout);
  }
  std::cout << "\npaper claim to check: USM varies little across C_du "
               "(the controller cadence,\nnot the per-pick step, sets the "
               "equilibrium).\n";
  return Status::Ok();
}

/// One row per variant of `p`'s single (trace, policy): the variant's
/// labels, then USM, success, dsf and updates shed.
void PrintVariantTable(const Panel& p, std::vector<std::string> header,
                       std::vector<std::string> (*labels)(const GridVariant&),
                       int separate_every) {
  TextTable table;
  header.insert(header.end(), {"USM", "success", "dsf", "updates shed"});
  table.SetHeader(std::move(header));
  for (int v = 0; v < p.variants(); ++v) {
    const GridCellResult& c = p.cell(0, v, 0);
    std::vector<std::string> row =
        labels(p.spec.variants[static_cast<size_t>(v)]);
    row.insert(row.end(), {Fmt(MeanUsm(c), 3),
                           FmtPercent(c.result.success_ratio.mean()),
                           FmtPercent(c.result.dsf_ratio.mean()),
                           FmtPercent(p.Mean(0, c, Shed))});
    table.AddRow(std::move(row));
    if (separate_every > 0 && (v + 1) % separate_every == 0) {
      table.AddSeparator();
    }
  }
  table.Print(std::cout);
}

std::vector<std::string> NameOf(const GridVariant& v) { return {v.name}; }

const std::vector<double> kForgetFactors = {0.5, 0.8, 0.9, 0.95, 0.99};

Status PrintA2(const FigureRun& run) {
  const Panel& p = run.panels[0];
  std::cout << "trace " << p.workload(0, 0).update_trace_name << "\n\n";
  PrintVariantTable(
      p, {"decay", "C_forget"},
      [](const GridVariant& v) -> std::vector<std::string> {
        const ModulationParams& m = v.request.options.unit.modulation;
        return {m.time_decay ? "time" : "per-event", Fmt(m.c_forget, 2)};
      },
      static_cast<int>(kForgetFactors.size()));
  return Status::Ok();
}

Status PrintA3(const FigureRun& run) {
  const Panel& p = run.panels[0];
  std::cout << "\n";
  TextTable table;
  table.SetHeader({"trace", "unit", "no-AC", "no-UM", "bare"});
  for (int t = 0; t < p.traces(); ++t) {
    table.AddRow(
        UsmRow(p.cell(t, 0, 0).result.trace, p, t, 0, MeanUsm, false));
    if (t % p.volumes() == p.volumes() - 1) table.AddSeparator();
  }
  table.Print(std::cout);
  return Status::Ok();
}

Status PrintA4(const FigureRun& run) {
  const Panel& dt = run.panels[0];
  std::cout << "trace " << dt.workload(0, 0).update_trace_name << "\n";
  std::cout << "\n--- dt_scale (access shielding strength, Eq. 6) ---\n";
  PrintVariantTable(dt, {"dt_scale"}, NameOf, 0);
  std::cout << "\n--- upgrade policy (Eq. 10 reading) ---\n";
  PrintVariantTable(run.panels[1], {"upgrade"}, NameOf, 0);

  std::cout << "\n--- ODU in-flight refresh dedupe ---\n";
  const Panel& odu = run.panels[2];  // policies odu, odu-nodedupe
  TextTable table;
  table.SetHeader({"dedupe", "USM", "success", "dmf", "refreshes"});
  for (int k = 0; k < odu.policies(); ++k) {
    const GridCellResult& c = odu.cell(0, 0, k);
    const double refreshes =
        odu.Mean(0, c, [](const ExperimentResult& r, const Workload&) {
          return static_cast<double>(r.metrics.on_demand_updates);
        });
    table.AddRow({k == 0 ? "on" : "off", Fmt(MeanUsm(c), 3),
                  FmtPercent(c.result.success_ratio.mean()),
                  FmtPercent(c.result.dmf_ratio.mean()), Fmt(refreshes, 0)});
  }
  table.Print(std::cout);
  return Status::Ok();
}

Status PrintA5(const FigureRun& run) {
  const Panel& p = run.panels[0];
  std::cout << "(med-unif, " << p.spec.replications
            << " seeds; mean USM +/- stddev)\n\n";
  TextTable table;
  table.SetHeader({"policy", "EDF", "FCFS", "delta"});
  for (int k = 0; k < p.policies(); ++k) {
    const RunningStat& edf = p.cell(0, 0, k).result.usm;
    const RunningStat& fcfs = p.cell(0, 1, k).result.usm;
    table.AddRow({p.spec.policies[static_cast<size_t>(k)],
                  Fmt(edf.mean(), 3) + " +/- " + Fmt(edf.stddev(), 3),
                  Fmt(fcfs.mean(), 3) + " +/- " + Fmt(fcfs.stddev(), 3),
                  Fmt(edf.mean() - fcfs.mean(), 3)});
  }
  table.Print(std::cout);
  return Status::Ok();
}

Status PrintHybrid(const FigureRun& run) {
  const Panel& p = run.panels[0];
  std::cout << "\n";
  TextTable table;
  table.SetHeader({"trace", "unit", "odu", "unit-hybrid", "winner"});
  int hybrid_wins = 0;
  for (int t = 0; t < p.traces(); ++t) {
    std::vector<std::string> row =
        UsmRow(p.cell(t, 0, 0).result.trace, p, t, 0, MeanUsm, true);
    if (row.back() == "unit-hybrid") ++hybrid_wins;
    table.AddRow(std::move(row));
    if (t % p.volumes() == p.volumes() - 1) table.AddSeparator();
  }
  table.Print(std::cout);
  std::cout << "\nunit-hybrid wins " << hybrid_wins << " of " << p.traces()
            << " cells outright.\n";
  return Status::Ok();
}

// The extension figures (fig7..fig9) score every run with one weighting and
// run one figure-wide sweep each; their first panel is an off gate.
const UsmWeights kExtensionWeights{1.0, 0.5, 1.0, 0.5};
constexpr double kExtensionScale = 0.25;

double Usm(const ExperimentResult& r) { return r.usm; }

/// The mean of `value(run)` over a cell's replications.
template <typename Fn>
double MeanOf(const GridCellResult& c, Fn value) {
  RunningStat s;
  for (const ExperimentResult& r : c.runs) s.Add(static_cast<double>(value(r)));
  return s.mean();
}

/// A field of a run's metrics.
template <typename T>
auto Metric(T RunMetrics::*field) {
  return [field](const ExperimentResult& r) { return r.metrics.*field; };
}

/// A field of a run's disturbance report.
auto Disturbance(double DisturbanceReport::*field) {
  return [field](const ExperimentResult& r) { return r.disturbance.*field; };
}

/// One grid cell as a JSON object and a table row. Values are replication
/// means; at one replication each is the run's own value in its own type, so
/// a count prints as the count.
struct Line {
  const GridCellResult& c;
  bench::JsonObject json{};
  std::vector<std::string> row{};

  /// A value of the cell itself, shown in the table as `shown` ("": not).
  template <typename T>
  Line& Fixed(const std::string& key, const T& value,
              const std::string& shown) {
    json.Add(key, value);
    if (!shown.empty()) row.push_back(shown);
    return *this;
  }
  /// The mean of `value(run)`, shown with `decimals` (< 0: not shown).
  template <typename Fn>
  Line& Mean(const std::string& key, Fn value, int decimals = -1) {
    const std::string shown =
        decimals < 0 ? "" : Fmt(MeanOf(c, value), decimals);
    return c.runs.size() == 1 ? Fixed(key, value(c.runs.front()), shown)
                              : Fixed(key, MeanOf(c, value), shown);
  }
  /// recover_s, the settling time after the faults, where -1 means a run
  /// never settled: with several replications the table shows how many
  /// settled ("k/m") and the JSON their mean (-1 when none did) and count.
  Line& Recovery() {
    RunningStat settled;
    for (const ExperimentResult& r : c.runs) {
      if (r.disturbance.recover_s >= 0.0) settled.Add(r.disturbance.recover_s);
    }
    const double recover_s = settled.count() > 0 ? settled.mean() : -1.0;
    if (c.runs.size() == 1) {
      return Fixed("recover_s", recover_s,
                   recover_s < 0 ? "never" : Fmt(recover_s, 1));
    }
    return Fixed("recover_s", recover_s,
                 std::to_string(settled.count()) + "/" +
                     std::to_string(c.runs.size()))
        .Fixed("settled", settled.count(), "");
  }
};

/// An extension figure. Its off gate fails unless every run of panel 0's
/// variant 1 (off) equals variant 0's (plain) bit for bit; then one
/// `line(variant, cell)` per cell of panel 1 is printed as a table under
/// `columns` and written as a JSON cell to out= if given, under `header` plus
/// the run's scale, seed and seeds.
template <typename Fn>
Status PrintExtension(const FigureRun& run, const std::string& layer,
                      const std::string& check, bench::JsonObject header,
                      std::vector<std::string> columns, Fn line) {
  const Panel& gate = run.panels[0];
  for (int k = 0; k < gate.policies(); ++k) {
    const GridCellResult& plain = gate.cell(0, 0, k);
    const GridCellResult& off = gate.cell(0, 1, k);
    for (size_t i = 0; i < plain.runs.size(); ++i) {
      if (!(off.runs[i].metrics == plain.runs[i].metrics)) {
        return Status(StatusCode::kInternal,
                      layer + " perturbed policy '" + plain.result.policy +
                          "' (usm " + Fmt(off.runs[i].usm, 6) + " vs " +
                          Fmt(plain.runs[i].usm, 6) + ")");
      }
    }
  }
  std::cout << check << ": ok (" << gate.policies() << " policies)\n";

  const Panel& p = run.panels[1];
  TextTable table;
  table.SetHeader(std::move(columns));
  std::vector<bench::JsonObject> cells;
  for (size_t i = 0; i < p.cells.size(); ++i) {
    const int v = static_cast<int>(i) / p.policies() % p.variants();
    const Line l = line(p.spec.variants[static_cast<size_t>(v)], p.cells[i]);
    table.AddRow(l.row);
    cells.push_back(l.json);
  }
  table.Print(std::cout);
  if (run.out.empty()) return Status::Ok();
  header.Add("scale", p.spec.scale)
      .Add("seed", p.spec.base_seed)
      .Add("seeds", p.spec.replications);
  return bench::WriteJson(run.out, "bench_grid", header, cells, *run.args);
}

Status PrintFig7(const FigureRun& run) {
  return PrintExtension(
      run, "empty fault schedule", "no-fault no-op check",
      bench::JsonObject().Add("figure", "fig7"),
      {"scenario", "policy", "usm", "baseline", "dip", "recover_s"},
      [](const GridVariant&, const GridCellResult& c) {
        return Line{c}
            .Fixed("cell", c.variant, c.variant)
            .Fixed("policy", c.result.policy, c.result.policy)
            .Mean("usm", Usm, 4)
            .Mean("baseline_usm", Disturbance(&DisturbanceReport::baseline_usm),
                  4)
            .Mean("min_usm", Disturbance(&DisturbanceReport::min_usm))
            .Mean("dip_depth", Disturbance(&DisturbanceReport::dip_depth), 4)
            .Recovery()
            .Mean("fault_start_s",
                  Disturbance(&DisturbanceReport::fault_start_s))
            .Mean("fault_end_s", Disturbance(&DisturbanceReport::fault_end_s));
      });
}

/// `part` of `whole`; 0 when `whole` is.
double Share(int64_t part, int64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

double AbandonRate(const ExperimentResult& r) {
  return Share(r.metrics.session_abandons, r.metrics.session_requests);
}

/// p90 of a run's kSessionRetry client delays, in seconds; 0 without any.
double RetryP90(const ExperimentResult& r) {
  std::vector<SimDuration> delays;
  for (const TraceEvent& e : r.events) {
    if (e.type == TraceEventType::kSessionRetry) delays.push_back(e.lag);
  }
  if (delays.empty()) return 0.0;
  std::sort(delays.begin(), delays.end());
  const size_t idx = (delays.size() * 9) / 10;
  return SimToSeconds(delays[std::min(idx, delays.size() - 1)]);
}

Status PrintFig8(const FigureRun& run) {
  return PrintExtension(
      run, "disabled session layer", "sessions-off no-op check",
      bench::JsonObject().Add("figure", "fig8").Add("policy", "unit"),
      {"cell", "sessions", "patience_s", "usm", "abandon_rate", "retry_p90_s",
       "recover_s"},
      [](const GridVariant& v, const GridCellResult& c) {
        const SessionParams& session = v.request.engine.session;
        const double patience_s = SimToSeconds(session.patience);
        return Line{c}
            .Fixed("cell", c.variant, c.variant)
            .Fixed("sessions", session.sessions,
                   std::to_string(session.sessions))
            .Fixed("patience_s", patience_s, Fmt(patience_s, 1))
            .Mean("usm", Usm, 4)
            .Mean("requests", Metric(&RunMetrics::session_requests))
            .Mean("retries", Metric(&RunMetrics::session_retries))
            .Mean("abandons", Metric(&RunMetrics::session_abandons))
            .Mean("shed", Metric(&RunMetrics::queries_shed))
            .Mean("abandon_rate", AbandonRate, 4)
            .Mean("retry_p90_s", RetryP90, 4)
            .Recovery();
      });
}

double HitRate(const ExperimentResult& r) {
  const RunMetrics& m = r.metrics;
  return Share(m.cache_hits,
               m.cache_hits + m.cache_misses + m.cache_stale_skips);
}

Status PrintFig9(const FigureRun& run) {
  const auto name = [](const GridCellResult& c) {
    return std::string(UpdateVolumeName(c.volume)) + "_" + c.variant;
  };
  Status s = PrintExtension(
      run, "disabled result cache", "cache-off no-op check",
      bench::JsonObject().Add("figure", "fig9").Add("policy", "unit"),
      {"cell", "volume", "capacity", "usm", "hit_rate", "events", "freshness"},
      [&](const GridVariant& v, const GridCellResult& c) {
        const std::string volume = UpdateVolumeName(c.volume);
        const int capacity = v.request.engine.cache.capacity;
        return Line{c}
            .Fixed("cell", name(c), name(c))
            .Fixed("volume", volume, volume)
            .Fixed("capacity", capacity, std::to_string(capacity))
            .Mean("usm", Usm, 4)
            .Mean("hit_rate", HitRate, 4)
            .Mean("events_processed", Metric(&RunMetrics::events_processed), 0)
            .Mean("hits", Metric(&RunMetrics::cache_hits))
            .Mean("misses", Metric(&RunMetrics::cache_misses))
            .Mean("stale_skips", Metric(&RunMetrics::cache_stale_skips))
            .Mean("invalidations", Metric(&RunMetrics::cache_invalidations))
            .Mean("mean_freshness", [](const ExperimentResult& r) {
              return r.metrics.query_freshness.mean();
            }, 4);
      });
  if (!s.ok()) return s;

  // The high-hit cell, the largest cache under low update volume (trace 0),
  // must process at least 20% fewer events than that volume's uncached run,
  // with USM no worse.
  const Panel& p = run.panels[1];
  const GridCellResult& uncached = p.cell(0, 0, 0);
  const GridCellResult& high_hit = p.cell(0, p.variants() - 1, 0);
  const auto events = Metric(&RunMetrics::events_processed);
  const double saving =
      1.0 - MeanOf(high_hit, events) / MeanOf(uncached, events);
  const std::string usm = Fmt(MeanOf(high_hit, Usm), 4);
  const std::string uncached_usm = Fmt(MeanOf(uncached, Usm), 4);
  std::cout << "high-hit cell " << name(high_hit) << ": hit_rate "
            << Fmt(MeanOf(high_hit, HitRate), 4) << ", event saving "
            << Fmt(100.0 * saving, 1) << "% vs uncached, usm " << usm
            << " (uncached " << uncached_usm << ")\n";
  if (saving < 0.20) {
    return Status::FailedPrecondition("GATE: high-hit cell saved only " +
                                      Fmt(100.0 * saving, 1) +
                                      "% of events (want >= 20%)");
  }
  return MeanOf(high_hit, Usm) < MeanOf(uncached, Usm)
             ? Status::FailedPrecondition("GATE: high-hit cell USM " + usm +
                                          " regressed below uncached " +
                                          uncached_usm)
             : Status::Ok();
}

/// Every figure. The extension figures' fault windows sit at fixed shares of
/// the run, so they follow `scale` (given, or theirs); the `scenario` file
/// ("" = none) replaces fig7's two canned disturbances.
StatusOr<std::vector<Figure>> Figures(std::optional<double> scale,
                                      const std::string& scenario) {
  const std::vector<std::string> paper = {"imu", "odu", "qmf", "unit"};
  const auto fixed = [](double x) { return Fmt(x, 0); };
  const auto two_places = [](double x) { return Fmt(x, 2); };
  std::vector<GridVariant> forget;  // named e.g. "time-0.90"
  for (bool time_decay : {true, false}) {
    const std::string mode = time_decay ? "time-" : "per-event-";
    const std::vector<GridVariant> sweep = Sweep(
        kForgetFactors, [&](double c) { return mode + Fmt(c, 2); },
        [&](GridVariant& v, double c) {
          v.request.options.unit.modulation.c_forget = c;
          v.request.options.unit.modulation.time_decay = time_decay;
        });
    forget.insert(forget.end(), sweep.begin(), sweep.end());
  }
  struct Upgrade {
    const char* name;
    bool selective;
    bool linear;
  };
  const std::vector<Upgrade> upgrades = {{"selective", true, false},
                                         {"global-halving", false, false},
                                         {"global-linear", false, true}};
  GridVariant fcfs{"FCFS", {}};
  fcfs.request.engine.discipline = QueueDiscipline::kFcfs;

  const double run_s =  // MakeStandardWorkload's run length
      SimToSeconds(static_cast<SimDuration>(
          static_cast<double>(QueryTraceParams{}.duration) *
          scale.value_or(kExtensionScale)));
  // `body` with its fault window over [lo, hi] of the run, parsed as a
  // scenario file is.
  const auto windowed = [&](const std::string& body, double lo, double hi) {
    std::ostringstream os;
    os << body << "fault0.start_s = " << run_s * lo << "\n"
       << "fault0.end_s = " << run_s * hi << "\n";
    return FaultScenarioSpec::Parse(os.str());
  };
  auto step = windowed(
      "name = step\nfault0.kind = load-step\nfault0.rate_hz = 20\n", 0.4, 0.6);
  auto outage = windowed(
      "name = outage\nfault0.kind = update-outage\nfault0.items = 0-63\n",
      0.4, 0.7);
  auto storm = windowed(
      "name = retry-storm\nfault0.kind = retry-storm\nfault0.rate_hz = 40\n",
      0.4, 0.7);
  auto file = scenario.empty() ? StatusOr(FaultScenarioSpec{})
                              : FaultScenarioSpec::Load(scenario);
  for (const auto* spec : {&step, &outage, &storm, &file}) {
    if (!spec->ok()) return spec->status();
  }
  std::vector<GridVariant> disturbances;
  for (const FaultScenarioSpec& spec :
       scenario.empty() ? std::vector{*step, *outage} : std::vector{*file}) {
    disturbances.push_back({spec.name,
                            {.weights = kExtensionWeights,
                             .scenario = spec,
                             .obs = {.series = true}}});
  }

  // The off gates' pairs: the plain run, then the same run with a layer
  // attached but off.
  const GridVariant plain{"plain", {.weights = kExtensionWeights}};
  GridVariant faults_off{"off", {.weights = kExtensionWeights,
                                 .scenario = FaultScenarioSpec{}}};
  GridVariant sessions_off{"off", {.weights = kExtensionWeights}};
  SessionParams& off = sessions_off.request.engine.session;  // sessions=0
  off.max_retries = 9;
  off.patience = SecondsToSim(1.0);
  off.backoff_base = MillisToSim(7.0);
  off.seed = 0xDEADBEEFULL;
  std::vector<GridVariant> storms;  // sessions x patience under the storm
  for (int sessions : {8, 24, 48}) {
    for (double patience_s : {0.0, 2.0}) {
      // Not "s" + std::string&&: GCC 12 at -O3 reports a false -Wrestrict.
      std::string name = "s";
      name += std::to_string(sessions) + "_p" + Fmt(patience_s, 0);
      RunRequest& r = storms.emplace_back(GridVariant{
          std::move(name),
          {.weights = kExtensionWeights,
           .scenario = *storm,
           .obs = {.series = true, .events = {TraceEventType::kSessionRetry}}}})
          .request;
      r.engine.session.sessions = sessions;
      r.engine.session.max_retries = 3;
      r.engine.session.patience = SecondsToSim(patience_s);
      r.engine.shed_watermark = 8;
    }
  }

  GridVariant cache_off{"off", {.weights = kExtensionWeights}};
  cache_off.request.engine.cache.max_hit_udrop = 3;  // capacity 0
  std::vector<GridVariant> caches;
  for (int capacity : {0, 16, 64, 256}) {
    std::string name = "c";  // not "c" + std::string&& (see above)
    name += std::to_string(capacity);
    caches.push_back({std::move(name), {.weights = kExtensionWeights}});
    caches.back().request.engine.cache.capacity = capacity;
  }

  return std::vector<Figure>{
      {"table1", "Table 1: update traces", {Axes({})}, 1.0, 1, PrintTable1},
      {"fig3",
       "Figure 3: accesses and updates over data items",
       {Axes({"unit"}, {},
             {UpdateDistribution::kUniform, UpdateDistribution::kNegative},
             kMedium)},
       1.0, 1, PrintFig3},
      {"fig4", "Figure 4: naive USM (= success ratio)", {Axes(paper)}, 1.0, 1,
       PrintFig4},
      {"fig5",
       "Figure 5: USM under non-zero penalty costs",
       {Axes(paper, Table2WeightsBelowOne(), kUniform, kMedium),
        Axes(paper, Table2WeightsAboveOne(), kUniform, kMedium)},
       1.0, 1, PrintFig5},
      {"fig6",
       "Figure 6: outcome-ratio decomposition (med-unif)",
       {Axes({"imu", "odu", "qmf"}, {}, kUniform, kMedium),
        Axes({"unit"}, Table2WeightsBelowOne(), kUniform, kMedium)},
       1.0, 1, PrintFig6},
      {"a1",
       "Ablation A1: degrade step C_du (Eq. 9)",
       {Axes({"unit"},
             Sweep(std::vector<double>{0.05, 0.1, 0.25, 0.5, 1.0}, two_places,
                   [](GridVariant& v, double c) {
                     v.request.options.unit.modulation.c_du = c;
                   }),
             {UpdateDistribution::kUniform, UpdateDistribution::kNegative},
             kMedium)},
       1.0, 1, PrintA1},
      {"a2",
       "Ablation A2: forgetting factor C_forget (Eq. 8)",
       {Axes({"unit"}, forget, kUniform, kMedium)},
       1.0, 1, PrintA2},
      {"a3",
       "Ablation A3: UNIT component contributions",
       {Axes({"unit", "unit-noac", "unit-noum", "unit-bare"})},
       1.0, 1, PrintA3},
      {"a4",
       "Ablation A4: victim selection / repair choices",
       {Axes({"unit"},
             Sweep(std::vector<double>{1.0, 10.0, 50.0, 100.0, 400.0, 1000.0},
                   fixed,
                   [](GridVariant& v, double s) {
                     v.request.options.unit.modulation.dt_scale = s;
                   }),
             kUniform, kMedium),
        Axes({"unit"},
             Sweep(upgrades,
                   [](const Upgrade& u) { return std::string(u.name); },
                   [](GridVariant& v, const Upgrade& u) {
                     ModulationParams& m = v.request.options.unit.modulation;
                     m.selective_upgrade = u.selective;
                     m.linear_upgrade = u.linear;
                   }),
             kUniform, kMedium),
        Axes({"odu", "odu-nodedupe"}, {}, kUniform, kMedium)},
       1.0, 1, PrintA4},
      {"a5",
       "Ablation A5: EDF vs FCFS intra-class dispatch",
       {Axes({"unit", "imu", "odu", "qmf"}, {{"EDF", {}}, fcfs},
             kUniform, kMedium)},
       0.5, 3, PrintA5},
      {"hybrid",
       "Extension: unit-hybrid (UNIT + just-in-time repair)",
       {Axes({"unit", "odu", "unit-hybrid"})},
       1.0, 1, PrintHybrid},
      {"fig7",
       "Adaptivity under disturbance (Fig. 7 territory)",
       {Axes({"unit", "unit-bare", "imu", "qmf"}, {plain, faults_off},
             kUniform, kMedium),
        Axes({"unit", "unit-bare", "imu", "qmf"}, disturbances, kUniform,
             kMedium)},
       kExtensionScale, 1, PrintFig7, true},
      {"fig8",
       "Closed-loop sessions under a retry storm (Fig. 8)",
       {Axes({"unit", "unit-bare", "imu", "qmf"}, {plain, sessions_off},
             kUniform, kMedium),
        Axes({"unit"}, storms, kUniform, kMedium)},
       kExtensionScale, 1, PrintFig8, true},
      {"fig9",
       "Freshness-aware result cache (Fig. 9)",
       {Axes({"unit", "imu", "odu", "qmf"}, {plain, cache_off}, kUniform,
             kMedium),
        Axes({"unit"}, caches, kUniform)},
       kExtensionScale, 1, PrintFig9, true},
  };
}

/// Re-runs replication 0 of every grid cell with tracing attached.
Status TraceCells(const FigureRun& run, const std::string& dir,
                  const std::string& only) {
  bool any_cells = false, matched = false;
  for (const Panel& p : run.panels) any_cells |= !p.cells.empty();
  if (!any_cells) return Status::Ok();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir + ": " + ec.message());
  std::cout << "\n--- traced runs (JSONL + window series) -> " << dir
            << " ---\n";
  for (const Panel& p : run.panels) {
    for (int t = 0; t < p.traces() && !p.cells.empty(); ++t) {
      const Workload& w = p.workload(t, 0);
      if (!only.empty() && w.update_trace_name != only) continue;
      matched = true;
      for (const GridVariant& variant : p.spec.variants) {
        for (const std::string& policy : p.spec.policies) {
          const std::string label =  // the default variant adds no suffix
              variant.name == "naive" ? policy : policy + "-" + variant.name;
          const std::string stem =
              dir + "/" + w.update_trace_name + "-" + label;
          RunRequest request = variant.request;
          request.policy = policy;
          request.fault_seed = ReplicationSeed(p.spec.base_seed, 0);
          request.shards = 0;
          request.obs = {.trace_path = stem + ".jsonl",
                         .series_csv_path = stem + "-series.csv"};
          auto r = RunExperiment(w, request);
          if (!r.ok()) return r.status();
          std::ifstream trace(request.obs.trace_path);  // one event a line
          const auto events =
              std::count(std::istreambuf_iterator<char>(trace),
                         std::istreambuf_iterator<char>(), '\n');
          std::cout << "  " << w.update_trace_name << " " << label
                    << " usm=" << Fmt(r->usm, 3) << " events=" << events
                    << " windows=" << r->series.size() << "\n";
        }
      }
    }
  }
  if (!only.empty() && !matched) {
    return Status::InvalidArgument("trace_cell '" + only +
                                   "' matches no trace (expected e.g. "
                                   "med-unif)");
  }
  return Status::Ok();
}

Status Run(bench::Args& args) {
  const std::string name = args.String("figure", "all");
  // scale= and seeds= override each figure's own defaults when given.
  const bool own_scale = !args.Has("scale");
  const double scale = args.Double("scale", 1.0);
  const uint64_t seed = args.Int("seed", 42);
  const bool own_seeds = !args.Has("seeds");
  const int seeds = static_cast<int>(args.Int("seeds", 1, 1));
  const int jobs = static_cast<int>(args.Int("jobs", 0, 0));
  const int shards = static_cast<int>(args.Int("shards", 0, 0));
  const std::string trace_dir = args.String("trace_dir", "");
  const std::string trace_cell = args.String("trace_cell", "");
  const std::string out = args.String("out", "");
  const std::string scenario = args.String("scenario", "");
  if (Status s = args.Check(); !s.ok()) return s;
  if (!trace_cell.empty() && trace_dir.empty()) {
    return Status::InvalidArgument("trace_cell= needs trace_dir=");
  }
  if (!scenario.empty() && name != "fig7") {
    return Status::InvalidArgument("scenario= applies to figure=fig7 only");
  }

  auto all = Figures(own_scale ? std::nullopt : std::optional(scale), scenario);
  if (!all.ok()) return all.status();
  std::vector<Figure> figures = *all;
  if (name != "all") {
    std::erase_if(figures, [&](const Figure& f) { return f.name != name; });
    if (figures.empty()) {
      std::string known;
      for (const Figure& f : *all) known += std::string(f.name) + "|";
      return Status::InvalidArgument("unknown figure '" + name + "' (want " +
                                     known + "all)");
    }
  }
  if (!out.empty() && (figures.size() != 1 || !figures.front().json)) {
    return Status::InvalidArgument(
        "out= applies to one of figure=fig7|fig8|fig9");
  }
  for (size_t f = 0; f < figures.size(); ++f) {
    const Figure& fig = figures[f];
    const auto start = std::chrono::steady_clock::now();
    FigureRun run{{}, jobs, shards, out, &args};
    for (GridSpec spec : fig.panels) {
      spec.scale = own_scale ? fig.scale : scale;
      spec.replications = own_seeds ? fig.seeds : seeds;
      spec.base_seed = seed;
      if (spec.variants.empty()) spec.variants = {{"naive", {}}};
      for (GridVariant& v : spec.variants) {
        v.request.shards = shards > 1 ? shards : 0;
      }
      Panel panel;
      auto workloads = MakeGridWorkloads(spec, jobs);
      if (!workloads.ok()) return workloads.status();
      panel.workloads = std::move(*workloads);
      if (!spec.policies.empty()) {
        auto cells = RunGrid(spec, panel.workloads, jobs);
        if (!cells.ok()) return cells.status();
        panel.cells = std::move(*cells);
      }
      panel.spec = std::move(spec);
      run.panels.push_back(std::move(panel));
    }
    std::cout << (f > 0 ? "\n" : "") << "=== " << fig.title << " ===\n";
    if (shards > 1) {
      std::cout << "(sharded runner: shards=" << shards
                << ", parent-level Eq. 5 accounting)\n";
    }
    if (Status s = fig.print(run); !s.ok()) return s;
    if (!trace_dir.empty()) {
      if (Status s = TraceCells(run, trace_dir, trace_cell); !s.ok()) {
        return s;
      }
    }
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    std::cout << "grid wall-clock: " << Fmt(wall.count(), 3)
              << " s (jobs=" << ResolveJobs(jobs) << ")\n";
  }
  return Status::Ok();
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) {
  return unitdb::bench::Main(argc, argv,
                             {"figure", "scale", "seed", "seeds", "jobs",
                              "shards", "trace_dir", "trace_cell", "out",
                              "scenario"},
                             unitdb::Run);
}
