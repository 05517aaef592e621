// Implementing your own transaction-management policy against the public
// Policy interface. Two custom schemes are built here:
//
//  1. DeadlinePassPolicy — admission by a plain laxity check (no USM
//     reasoning) on the EST that EngineContext::ProjectAdmission projects,
//     periodic updates untouched. A minimal useful policy in ~20 lines.
//  2. MarkingHybrid — a from-scratch re-build of the library's
//     unit-hybrid policy (UNIT + ODU-style pre-read repair), showing how
//     to extend a built-in policy by overriding one hook.
//
// Both are compared against the built-ins on the standard med-unif trace.
//
// Usage: custom_policy [scale=0.5] [seed=42]
// An unknown key exits 1 with INVALID_ARGUMENT.

#include <iostream>
#include <memory>

#include "unit/common/config.h"
#include "unit/core/policies/unit_policy.h"
#include "unit/core/policy.h"
#include "unit/sched/engine.h"
#include "unit/sim/experiment.h"
#include "unit/sim/report.h"

namespace {

using namespace unitdb;

// 1. A plain laxity-based admission controller.
class DeadlinePassPolicy : public Policy {
 public:
  std::string name() const override { return "laxity"; }

  bool AdmitQuery(EngineContext& engine, const Transaction& query) override {
    // Admit iff the query could start right after the current backlog and
    // still meet its deadline (C_flex == 1; zero costs: no USM check).
    const SimDuration est =
        engine.ProjectAdmission(query.absolute_deadline(), query.estimate(),
                                /*dmf_cost=*/0.0, /*rejection_cost=*/0.0)
            .est;
    return est + query.estimate() <
           query.absolute_deadline() - engine.now();
  }
};

// 2. UNIT + on-demand repair of shed items before the query reads them
// (the library ships this as "unit-hybrid"; rebuilt here as a demo).
class MarkingHybrid : public UnitPolicy {
 public:
  explicit MarkingHybrid(const UsmWeights& weights) : UnitPolicy(weights) {}

  std::string name() const override { return "marking-hybrid"; }

  bool BeforeQueryDispatch(EngineContext& engine, Transaction& query) override {
    if (query.refresh_rounds() >= engine.params().max_refresh_rounds) {
      return true;
    }
    bool issued = false;
    for (ItemId item : query.items()) {
      if (engine.db().Freshness(item, engine.now()) <
              query.freshness_req() &&
          engine.PendingUpdatesForItem(item) == 0) {
        engine.IssueOnDemandUpdate(item);  // apply the buffered feed value
        issued = true;
      }
    }
    if (issued) query.IncrementRefreshRounds();
    return !issued;
  }
};

RunMetrics RunWith(const Workload& w, Policy& policy) {
  Engine engine(w, &policy, {});
  return engine.Run();
}

}  // namespace

int main(int argc, char** argv) {
  auto config = Config::ParseArgs(argc, argv);
  if (!config.ok()) {
    std::cerr << config.status().ToString() << "\n";
    return 1;
  }
  if (Status s = config->ExpectKeys({"scale", "seed"}); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  const double scale = config->GetDouble("scale", 0.5);
  const uint64_t seed = config->GetInt("seed", 42);
  if (Status s = config->CheckNumbers(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, scale, seed);
  if (!w.ok()) {
    std::cerr << w.status().ToString() << "\n";
    return 1;
  }
  std::cout << "custom policies on " << w->update_trace_name << " ("
            << w->queries.size() << " queries)\n\n";

  TextTable table;
  table.SetHeader({"policy", "USM", "success", "rejected", "dmf", "dsf"});
  auto add = [&table](const std::string& name, const RunMetrics& m) {
    const auto& c = m.counts;
    table.AddRow({name, Fmt(UsmAverage(c, UsmWeights{})),
                  FmtPercent(c.SuccessRatio()),
                  FmtPercent(c.RejectionRatio()), FmtPercent(c.DmfRatio()),
                  FmtPercent(c.DsfRatio())});
  };

  DeadlinePassPolicy laxity;
  add("laxity", RunWith(*w, laxity));
  MarkingHybrid hybrid((UsmWeights()));
  add("marking-hybrid", RunWith(*w, hybrid));
  for (const char* builtin : {"unit", "unit-hybrid", "imu", "odu", "qmf"}) {
    auto r = RunExperiment(*w, {.policy = builtin});
    if (!r.ok()) {
      std::cerr << r.status().ToString() << "\n";
      return 1;
    }
    add(builtin, r->metrics);
  }
  table.Print(std::cout);
  std::cout << "\nunit-hybrid layers ODU's just-in-time repair on UNIT's "
               "shedding — the\n'future work' combination DESIGN.md "
               "discusses.\n";
  return 0;
}
