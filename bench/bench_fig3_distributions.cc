// Reproduces Figure 3 of the paper: distribution of query accesses and
// update volume over the data items, before and after UNIT's Update
// Frequency Modulation.
//
//   3(a) query accesses per data item (the skewed cello-like histogram)
//   3(b) med-unif: source updates (grey) vs UNIT-applied updates (black)
//   3(c) med-neg:  same; the paper reports >95% of updates dropped, with
//        drops concentrated on cold-accessed / hot-updated items
//
// Output: per-item-bucket series (CSV-like) plus summary statistics. Buckets
// aggregate runs of item ids so the series stays printable; pass buckets=0
// for the raw 1024-point series.
//
// Usage: bench_fig3_distributions [scale=1.0] [seed=42] [buckets=32]

#include <algorithm>
#include <iostream>
#include <numeric>
#include <vector>

#include "unit/common/config.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"

namespace unitdb {
namespace {

std::vector<double> BucketSums(const std::vector<int64_t>& per_item,
                               int buckets) {
  if (buckets <= 0) {
    return std::vector<double>(per_item.begin(), per_item.end());
  }
  std::vector<double> out(buckets, 0.0);
  const size_t n = per_item.size();
  for (size_t i = 0; i < n; ++i) {
    out[i * buckets / n] += static_cast<double>(per_item[i]);
  }
  return out;
}

void PrintSeries(const std::string& label, const std::vector<double>& series) {
  std::cout << label;
  for (double v : series) std::cout << "," << static_cast<int64_t>(v);
  std::cout << "\n";
}

void CaseStudy(const Workload& workload, const std::string& title,
               int buckets) {
  std::cout << "\n--- " << title << " (trace " << workload.update_trace_name
            << ") ---\n";
  auto result = RunExperiment(workload, "unit", UsmWeights{});
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return;
  }
  const RunMetrics& m = result->metrics;
  const auto source = workload.SourceUpdateCounts();
  PrintSeries("source_updates", BucketSums(source, buckets));
  PrintSeries("unit_applied", BucketSums(m.per_item_applied_updates, buckets));

  const int64_t total_source = workload.TotalSourceUpdates();
  const int64_t applied =
      std::accumulate(m.per_item_applied_updates.begin(),
                      m.per_item_applied_updates.end(), int64_t{0});
  std::cout << "dropped: " << FmtPercent(
                   1.0 - static_cast<double>(applied) /
                             static_cast<double>(std::max<int64_t>(
                                 total_source, 1)))
            << " of " << total_source << " source updates\n";

  // Keep-rate split by access class: the paper's observation (2) — updates
  // on cold-accessed, hot-updated data are dropped most.
  const auto accesses = workload.QueryAccessCounts();
  double kept_hot = 0, src_hot = 0, kept_cold = 0, src_cold = 0;
  for (int i = 0; i < workload.num_items; ++i) {
    if (accesses[i] > 0) {
      kept_hot += static_cast<double>(m.per_item_applied_updates[i]);
      src_hot += static_cast<double>(source[i]);
    } else {
      kept_cold += static_cast<double>(m.per_item_applied_updates[i]);
      src_cold += static_cast<double>(source[i]);
    }
  }
  std::cout << "keep-rate on queried items:   "
            << FmtPercent(src_hot > 0 ? kept_hot / src_hot : 1.0) << "\n"
            << "keep-rate on unqueried items: "
            << FmtPercent(src_cold > 0 ? kept_cold / src_cold : 1.0) << "\n";
}

int Main(int argc, char** argv) {
  auto config = Config::ParseArgs(argc, argv);
  if (!config.ok()) {
    std::cerr << config.status().ToString() << "\n";
    return 1;
  }
  if (Status s = config->ExpectKeys({"scale", "seed", "buckets"}); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  const double scale = config->GetDouble("scale", 1.0);
  const uint64_t seed = config->GetInt("seed", 42);
  const int buckets = static_cast<int>(config->GetInt("buckets", 32));
  if (Status s = config->CheckNumbers(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  std::cout << "=== Figure 3: accesses and updates over data items ===\n";

  auto med_unif = MakeStandardWorkload(UpdateVolume::kMedium,
                                       UpdateDistribution::kUniform, scale,
                                       seed);
  if (!med_unif.ok()) {
    std::cerr << med_unif.status().ToString() << "\n";
    return 1;
  }

  // 3(a): the query access histogram (identical for every update trace).
  std::cout << "\n--- Fig 3(a): query accesses per item ---\n";
  PrintSeries("query_accesses",
              BucketSums(med_unif->QueryAccessCounts(), buckets));

  // 3(b): med-unif.
  CaseStudy(*med_unif, "Fig 3(b): med-unif, original vs UNIT degraded",
            buckets);

  // 3(c): med-neg.
  auto med_neg = MakeStandardWorkload(UpdateVolume::kMedium,
                                      UpdateDistribution::kNegative, scale,
                                      seed);
  if (!med_neg.ok()) {
    std::cerr << med_neg.status().ToString() << "\n";
    return 1;
  }
  CaseStudy(*med_neg, "Fig 3(c): med-neg, original vs UNIT degraded",
            buckets);
  return 0;
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) { return unitdb::Main(argc, argv); }
