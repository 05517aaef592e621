// Result-cache bench (Fig. 9): sweeps cache capacity x update volume and
// reports, per cell, the hit rate, the engine events processed (the work
// the cache saves — a hit skips the ready queue, the deadline event, and
// execution), the USM, and mean committed freshness. The headline claim is
// the high-hit-rate cell: at the largest capacity under low update volume
// the engine must process at least 20% fewer events than the uncached run
// of the same workload while the USM is no worse — hits are real successes
// at the same Eq. 1 freshness execution would have reported, never a
// quality trade.
//
// The "off" gate is the cache's regression guard, exactly like
// bench_fig8's sessions-off gate: capacity=0 with every other cache knob
// loaded must be a strict behavioral no-op, bit-for-bit across policies.
//
// All reported numbers are simulation outputs (not wall-clock), so the
// checked-in baseline under bench/baseline/ is machine-independent and
// compare_bench.py can gate on tight thresholds.
//
// Usage: bench_fig9_cache [scale=0.25] [seed=42] [policy=unit]
//                         [capacities=0,16,64,256] [volumes=low,med,high]
//                         [max_hit_udrop=-1] [out=BENCH_cache.json]
//
// Exit codes: 0 ok, 1 setup/knob error or a failed built-in gate (off-gate
// divergence, missing event saving, or USM regression at the high-hit cell).

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "unit/common/config.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"

namespace unitdb {
namespace {

struct CellResult {
  std::string cell;
  std::string volume;
  int capacity = 0;
  double usm = 0.0;
  double hit_rate = 0.0;
  int64_t events_processed = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t stale_skips = 0;
  int64_t invalidations = 0;
  double mean_freshness = 0.0;
};

/// capacity=0 must take zero divergent branches regardless of the other
/// cache knobs: every metric must equal the plain engine's, bit for bit,
/// exactly like bench_fig8's sessions-off gate.
Status CheckCacheOffNoOp(const Workload& workload, const std::string& policy,
                         const UsmWeights& weights) {
  EngineParams off;
  off.cache.capacity = 0;
  off.cache.max_hit_udrop = 3;  // ignored while disabled
  auto with = RunExperiment(workload, policy, weights, off);
  if (!with.ok()) return with.status();
  auto plain = RunExperiment(workload, policy, weights);
  if (!plain.ok()) return plain.status();

  if (!(with->metrics == plain->metrics)) {
    return Status(StatusCode::kInternal,
                  "disabled result cache perturbed policy '" + policy +
                      "' (usm " + Fmt(with->usm, 6) + " vs " +
                      Fmt(plain->usm, 6) + ")");
  }
  return Status::Ok();
}

void WriteJson(const std::vector<CellResult>& results,
               const std::string& policy, double scale, uint64_t seed,
               int64_t max_hit_udrop, const std::string& path) {
  std::ofstream f(path);
  f << "{\n";
  f << "  \"bench\": \"bench_fig9_cache\",\n";
  f << "  \"policy\": \"" << policy << "\",\n";
  f << "  \"scale\": " << scale << ",\n";
  f << "  \"seed\": " << seed << ",\n";
  f << "  \"max_hit_udrop\": " << max_hit_udrop << ",\n";
  f << "  \"cells\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    f << "    {\"cell\": \"" << r.cell << "\", \"volume\": \"" << r.volume
      << "\", \"capacity\": " << r.capacity << ", \"usm\": " << r.usm
      << ", \"hit_rate\": " << r.hit_rate
      << ", \"events_processed\": " << r.events_processed
      << ", \"hits\": " << r.hits << ", \"misses\": " << r.misses
      << ", \"stale_skips\": " << r.stale_skips
      << ", \"invalidations\": " << r.invalidations
      << ", \"mean_freshness\": " << r.mean_freshness << "}"
      << (i + 1 < results.size() ? "," : "") << "\n";
  }
  f << "  ]\n";
  f << "}\n";
}

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

int Main(int argc, char** argv) {
  auto config = Config::ParseArgs(argc, argv);
  if (!config.ok()) {
    std::cerr << config.status().ToString() << "\n";
    return 1;
  }
  if (Status s = config->ExpectKeys({"scale", "seed", "policy", "capacities",
                                     "volumes", "max_hit_udrop", "out"});
      !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  const double scale = config->GetDouble("scale", 0.25);
  const uint64_t seed = config->GetInt("seed", 42);
  const std::string policy = config->GetString("policy", "unit");
  const int64_t max_hit_udrop = config->GetInt("max_hit_udrop", -1);
  const std::string out = config->GetString("out", "BENCH_cache.json");
  if (Status s = config->CheckNumbers(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  std::vector<int> capacities;
  for (const std::string& tok :
       SplitCsv(config->GetString("capacities", "0,16,64,256"))) {
    capacities.push_back(std::stoi(tok));
  }
  std::vector<UpdateVolume> volumes;
  for (const std::string& tok :
       SplitCsv(config->GetString("volumes", "low,med,high"))) {
    if (tok == "low") {
      volumes.push_back(UpdateVolume::kLow);
    } else if (tok == "med") {
      volumes.push_back(UpdateVolume::kMedium);
    } else if (tok == "high") {
      volumes.push_back(UpdateVolume::kHigh);
    } else {
      std::cerr << "unknown volume '" << tok << "' (want low|med|high)\n";
      return 1;
    }
  }
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};

  std::cout << "=== Freshness-aware result cache (Fig. 9) ===\n";
  {
    auto gate_workload = MakeStandardWorkload(
        UpdateVolume::kMedium, UpdateDistribution::kUniform, scale, seed);
    if (!gate_workload.ok()) {
      std::cerr << gate_workload.status().ToString() << "\n";
      return 1;
    }
    for (const char* p : {"unit", "imu", "odu", "qmf"}) {
      if (Status s = CheckCacheOffNoOp(*gate_workload, p, weights); !s.ok()) {
        std::cerr << s.ToString() << "\n";
        return 1;
      }
    }
    std::cout << "cache-off no-op check: ok (4 policies)\n";
  }

  TextTable table;
  table.SetHeader({"cell", "volume", "capacity", "usm", "hit_rate",
                   "events", "freshness"});
  std::vector<CellResult> results;
  // Per volume: the capacity=0 baseline's event count, for the saving gate.
  int64_t low_volume_baseline_events = -1;
  const CellResult* high_hit_cell = nullptr;

  for (UpdateVolume volume : volumes) {
    auto workload = MakeStandardWorkload(volume, UpdateDistribution::kUniform,
                                         scale, seed);
    if (!workload.ok()) {
      std::cerr << workload.status().ToString() << "\n";
      return 1;
    }
    for (int capacity : capacities) {
      EngineParams engine;
      engine.cache.capacity = capacity;
      engine.cache.max_hit_udrop = capacity > 0 ? max_hit_udrop : -1;
      auto r = RunExperiment(*workload, policy, weights, engine);
      if (!r.ok()) {
        std::cerr << r.status().ToString() << "\n";
        return 1;
      }
      const RunMetrics& m = r->metrics;

      CellResult cell;
      cell.volume = UpdateVolumeName(volume);
      cell.capacity = capacity;
      cell.cell = cell.volume + "_c" + std::to_string(capacity);
      cell.usm = r->usm;
      cell.events_processed = m.events_processed;
      cell.hits = m.cache_hits;
      cell.misses = m.cache_misses;
      cell.stale_skips = m.cache_stale_skips;
      cell.invalidations = m.cache_invalidations;
      const int64_t looked_up = m.cache_hits + m.cache_misses +
                                m.cache_stale_skips;
      cell.hit_rate = looked_up > 0 ? static_cast<double>(m.cache_hits) /
                                          static_cast<double>(looked_up)
                                    : 0.0;
      cell.mean_freshness = m.query_freshness.mean();
      results.push_back(cell);
      table.AddRow({cell.cell, cell.volume, std::to_string(capacity),
                    Fmt(cell.usm, 4), Fmt(cell.hit_rate, 4),
                    std::to_string(cell.events_processed),
                    Fmt(cell.mean_freshness, 4)});

      if (volume == UpdateVolume::kLow && capacity == 0) {
        low_volume_baseline_events = cell.events_processed;
      }
    }
  }
  table.Print(std::cout);
  // The high-hit cell: largest capacity under the lowest update volume.
  for (const CellResult& c : results) {
    if (c.volume == std::string(UpdateVolumeName(UpdateVolume::kLow)) &&
        (high_hit_cell == nullptr || c.capacity > high_hit_cell->capacity)) {
      high_hit_cell = &c;
    }
  }

  WriteJson(results, policy, scale, seed, max_hit_udrop, out);
  std::cout << "wrote " << out << "\n";

  if (high_hit_cell != nullptr && low_volume_baseline_events > 0 &&
      high_hit_cell->capacity > 0) {
    const double saving =
        1.0 - static_cast<double>(high_hit_cell->events_processed) /
                  static_cast<double>(low_volume_baseline_events);
    double baseline_usm = 0.0;
    for (const CellResult& c : results) {
      if (c.volume == high_hit_cell->volume && c.capacity == 0) {
        baseline_usm = c.usm;
      }
    }
    std::cout << "high-hit cell " << high_hit_cell->cell << ": hit_rate "
              << Fmt(high_hit_cell->hit_rate, 4) << ", event saving "
              << Fmt(100.0 * saving, 1) << "% vs uncached, usm "
              << Fmt(high_hit_cell->usm, 4) << " (uncached "
              << Fmt(baseline_usm, 4) << ")\n";
    if (saving < 0.20) {
      std::cerr << "GATE: high-hit cell saved only " << Fmt(100.0 * saving, 1)
                << "% of events (want >= 20%)\n";
      return 1;
    }
    if (high_hit_cell->usm < baseline_usm) {
      std::cerr << "GATE: high-hit cell USM " << Fmt(high_hit_cell->usm, 4)
                << " regressed below uncached " << Fmt(baseline_usm, 4)
                << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) { return unitdb::Main(argc, argv); }
