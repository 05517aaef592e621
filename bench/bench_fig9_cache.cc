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
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"

namespace unitdb {
namespace {

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

Status Run(bench::Args& args) {
  const double scale = args.Double("scale", 0.25);
  const uint64_t seed = args.Int("seed", 42);
  const std::string policy = args.String("policy", "unit");
  const int64_t max_hit_udrop = args.Int("max_hit_udrop", -1);
  const std::string out = args.String("out", "BENCH_cache.json");
  const std::vector<int64_t> capacities =
      args.Ints("capacities", "0,16,64,256", 0);
  const std::vector<std::string> volume_names =
      args.List("volumes", "low,med,high");
  if (Status s = args.Check(); !s.ok()) return s;
  std::vector<UpdateVolume> volumes(volume_names.size());
  for (size_t i = 0; i < volume_names.size(); ++i) {
    if (!UpdateVolumeFromName(volume_names[i], &volumes[i])) {
      return Status::InvalidArgument("unknown volume '" + volume_names[i] +
                                     "' (want low|med|high)");
    }
  }
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};

  std::cout << "=== Freshness-aware result cache (Fig. 9) ===\n";
  {
    auto gate_workload = MakeStandardWorkload(
        UpdateVolume::kMedium, UpdateDistribution::kUniform, scale, seed);
    if (!gate_workload.ok()) return gate_workload.status();
    for (const char* p : {"unit", "imu", "odu", "qmf"}) {
      if (Status s = CheckCacheOffNoOp(*gate_workload, p, weights); !s.ok()) {
        return s;
      }
    }
    std::cout << "cache-off no-op check: ok (4 policies)\n";
  }

  TextTable table;
  table.SetHeader({"cell", "volume", "capacity", "usm", "hit_rate",
                   "events", "freshness"});
  std::vector<bench::JsonObject> results;
  // The high-hit cell is the largest capacity under low update volume; the
  // saving gate compares it with that volume's uncached (capacity 0) run.
  struct CellSummary {
    std::string cell;
    int64_t capacity = -1;
    double usm = 0.0;
    double hit_rate = 0.0;
    int64_t events = 0;
  };
  CellSummary uncached, high_hit;

  for (UpdateVolume volume : volumes) {
    auto workload = MakeStandardWorkload(volume, UpdateDistribution::kUniform,
                                         scale, seed);
    if (!workload.ok()) return workload.status();
    for (int64_t capacity : capacities) {
      EngineParams engine;
      engine.cache.capacity = static_cast<int>(capacity);
      engine.cache.max_hit_udrop = capacity > 0 ? max_hit_udrop : -1;
      auto r = RunExperiment(*workload, policy, weights, engine);
      if (!r.ok()) return r.status();
      const RunMetrics& m = r->metrics;

      const std::string volume_name = UpdateVolumeName(volume);
      const int64_t looked_up =
          m.cache_hits + m.cache_misses + m.cache_stale_skips;
      const CellSummary cell{
          volume_name + "_c" + std::to_string(capacity), capacity, r->usm,
          looked_up > 0 ? static_cast<double>(m.cache_hits) /
                              static_cast<double>(looked_up)
                        : 0.0,
          m.events_processed};
      results.push_back(bench::JsonObject()
                            .Add("cell", cell.cell)
                            .Add("volume", volume_name)
                            .Add("capacity", capacity)
                            .Add("usm", cell.usm)
                            .Add("hit_rate", cell.hit_rate)
                            .Add("events_processed", m.events_processed)
                            .Add("hits", m.cache_hits)
                            .Add("misses", m.cache_misses)
                            .Add("stale_skips", m.cache_stale_skips)
                            .Add("invalidations", m.cache_invalidations)
                            .Add("mean_freshness", m.query_freshness.mean()));
      table.AddRow({cell.cell, volume_name, std::to_string(capacity),
                    Fmt(cell.usm, 4), Fmt(cell.hit_rate, 4),
                    std::to_string(m.events_processed),
                    Fmt(m.query_freshness.mean(), 4)});

      if (volume != UpdateVolume::kLow) continue;
      if (capacity == 0) uncached = cell;
      if (capacity > high_hit.capacity) high_hit = cell;
    }
  }
  table.Print(std::cout);
  Status written = bench::WriteJson(out, "bench_fig9_cache",
                                    bench::JsonObject()
                                        .Add("policy", policy)
                                        .Add("scale", scale)
                                        .Add("seed", seed)
                                        .Add("max_hit_udrop", max_hit_udrop),
                                    results, args);
  if (!written.ok()) return written;

  if (uncached.events > 0 && high_hit.capacity > 0) {
    const double saving = 1.0 - static_cast<double>(high_hit.events) /
                                     static_cast<double>(uncached.events);
    std::cout << "high-hit cell " << high_hit.cell << ": hit_rate "
              << Fmt(high_hit.hit_rate, 4) << ", event saving "
              << Fmt(100.0 * saving, 1) << "% vs uncached, usm "
              << Fmt(high_hit.usm, 4) << " (uncached " << Fmt(uncached.usm, 4)
              << ")\n";
    if (saving < 0.20) {
      return Status::FailedPrecondition(
          "GATE: high-hit cell saved only " + Fmt(100.0 * saving, 1) +
          "% of events (want >= 20%)");
    }
    if (high_hit.usm < uncached.usm) {
      return Status::FailedPrecondition(
          "GATE: high-hit cell USM " + Fmt(high_hit.usm, 4) +
          " regressed below uncached " + Fmt(uncached.usm, 4));
    }
  }
  return Status::Ok();
}

}  // namespace
}  // namespace unitdb

int main(int argc, char** argv) {
  return unitdb::bench::Main(argc, argv,
                             {"scale", "seed", "policy", "capacities",
                              "volumes", "max_hit_udrop", "out"},
                             unitdb::Run);
}
