// Micro-benchmarks (google-benchmark) of the building blocks: the lottery
// sampler, admission control (index vs scan), ready-queue and lock-manager
// operations, freshness probes, and whole-engine event throughput.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <vector>

#include "unit/common/fenwick.h"
#include "unit/common/rng.h"
#include "unit/core/admission.h"
#include "unit/core/lottery.h"
#include "unit/core/policies/unit_policy.h"
#include "unit/db/database.h"
#include "unit/db/lock_manager.h"
#include "unit/model/reference_engine.h"
#include "unit/sched/engine.h"
#include "unit/sched/ready_queue.h"
#include "unit/sim/experiment.h"
#include "unit/workload/query_trace.h"
#include "unit/workload/update_trace.h"

namespace unitdb {
namespace {

void BM_FenwickSet(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  FenwickTree tree(n);
  Rng rng(1);
  size_t i = 0;
  for (auto _ : state) {
    tree.Set(i++ % n, rng.NextDouble());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FenwickSet)->Arg(1024)->Arg(65536);

void BM_FenwickFindPrefix(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  FenwickTree tree(n);
  Rng rng(2);
  for (size_t i = 0; i < n; ++i) tree.Set(i, rng.NextDouble());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.FindPrefix(rng.NextDouble() * tree.total()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FenwickFindPrefix)->Arg(1024)->Arg(65536);

void BM_LotterySample(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LotterySampler sampler(n);
  Rng rng(3);
  for (int i = 0; i < n; ++i) sampler.SetTicket(i, rng.Uniform(0.0, 5.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LotterySample)->Arg(1024)->Arg(16384);

void BM_LotteryTicketUpdate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LotterySampler sampler(n);
  Rng rng(4);
  for (int i = 0; i < n; ++i) sampler.SetTicket(i, rng.Uniform(0.0, 5.0));
  int i = 0;
  for (auto _ : state) {
    // Mixed raises/lowers like the modulator's ticket churn.
    sampler.SetTicket(i % n, rng.Uniform(0.0, 5.0));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LotteryTicketUpdate)->Arg(1024)->Arg(16384);

void BM_ReadyQueueInsertPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<Transaction> txns;
  txns.reserve(n);
  Rng rng(5);
  for (int i = 0; i < n; ++i) {
    txns.push_back(Transaction::MakeQuery(
        i, 0, MillisToSim(10), SecondsToSim(rng.Uniform(1.0, 100.0)), 0.9,
        {0}));
  }
  for (auto _ : state) {
    ReadyQueue q;
    for (auto& t : txns) q.Insert(&t);
    while (q.PopTop() != nullptr) {
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ReadyQueueInsertPop)->Arg(256)->Arg(4096);

void BM_LockManagerSharedCycle(benchmark::State& state) {
  LockManager lm(1024);
  Rng rng(6);
  TxnId id = 0;
  for (auto _ : state) {
    std::vector<ItemId> items = {
        static_cast<ItemId>(rng.UniformInt(0, 1023)),
        static_cast<ItemId>(rng.UniformInt(0, 1023))};
    lm.TryAcquireSharedAll(id, items);
    lm.ReleaseAll(id);
    ++id;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockManagerSharedCycle);

void BM_FreshnessProbe(benchmark::State& state) {
  Database db(1024);
  Rng rng(7);
  std::vector<ItemUpdateSpec> specs;
  for (int i = 0; i < 1024; ++i) {
    ItemUpdateSpec s;
    s.item = i;
    s.ideal_period = SecondsToSim(rng.Uniform(1.0, 100.0));
    s.update_exec = MillisToSim(10);
    s.phase = 0;
    specs.push_back(s);
  }
  (void)db.ApplySpecs(specs);
  SimTime t = 0;
  for (auto _ : state) {
    t += 1000;
    benchmark::DoNotOptimize(
        db.Freshness(static_cast<ItemId>(rng.UniformInt(0, 1023)), t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FreshnessProbe);

// Admission control: cost of one Admit() decision as the ready queue grows.
// arg0 = queue length, arg1 = 0 for the reference engine's O(N_rq) ready-queue
// scan (model/reference_engine.h), 1 for the engine's online admission index
// (O(log N_rq)). Built by flooding an engine with long-deadline queries
// behind a long-running head query, then timing decisions via the policy
// hook on repeated replays.
void BM_AdmissionScan(benchmark::State& state) {
  const int queue_len = static_cast<int>(state.range(0));
  const bool indexed = state.range(1) != 0;
  Workload w;
  w.num_items = 16;
  w.duration = SecondsToSim(1000.0);
  // Head query pins the CPU; `queue_len` queries pile up behind it; the
  // last arrival is the measured candidate (via AdmissionController).
  QueryRequest head;
  head.id = 0;
  head.arrival = 0;
  head.exec = SecondsToSim(900.0);
  head.relative_deadline = SecondsToSim(950.0);
  head.items = {0};
  w.queries.push_back(head);
  for (int i = 0; i < queue_len; ++i) {
    QueryRequest q;
    q.id = i + 1;
    q.arrival = SecondsToSim(0.001 * (i + 1));
    q.exec = MillisToSim(10.0);
    q.relative_deadline = SecondsToSim(990.0);
    q.items = {static_cast<ItemId>(i % 16)};
    w.queries.push_back(q);
  }
  // The candidate arrives last.
  QueryRequest cand = w.queries.back();
  cand.id = queue_len + 1;
  cand.arrival = SecondsToSim(1.0);
  w.queries.push_back(cand);

  struct Probe : Policy {
    AdmissionController* ac = nullptr;
    benchmark::State* state = nullptr;
    TxnId candidate_id = 0;
    std::string name() const override { return "probe"; }
    bool AdmitQuery(EngineContext& e, const Transaction& q) override {
      if (q.id() == candidate_id) {
        const auto t0 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(ac->Admit(e, q));
        const auto t1 = std::chrono::steady_clock::now();
        state->SetIterationTime(
            std::chrono::duration<double>(t1 - t0).count());
      }
      return true;
    }
  };
  AdmissionController ac({}, UsmWeights{1.0, 0.5, 1.0, 0.5});
  for (auto _ : state) {
    Probe probe;
    probe.ac = &ac;
    probe.state = &state;
    probe.candidate_id = queue_len + 1;
    if (indexed) {
      Engine(w, &probe, {}).Run();
    } else {
      ReferenceEngine(w, &probe, {}).Run();
    }
  }
  state.SetItemsProcessed(state.iterations() * queue_len);
  state.SetLabel(indexed ? "indexed" : "scan");
}
BENCHMARK(BM_AdmissionScan)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({512, 0})
    ->Args({512, 1})
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->UseManualTime()
    ->Iterations(30)  // each iteration replays a whole engine run
    ->Unit(benchmark::kMicrosecond);

// Whole-engine throughput: events per second of simulated serving, for each
// policy on a scaled-down standard workload.
void BM_EngineRun(benchmark::State& state) {
  const char* kPolicies[] = {"unit", "imu", "odu", "qmf"};
  const char* policy = kPolicies[state.range(0)];
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, 0.1, 42);
  if (!w.ok()) {
    state.SkipWithError("workload generation failed");
    return;
  }
  int64_t txns = 0;
  for (auto _ : state) {
    auto r = RunExperiment(*w, policy, UsmWeights{});
    if (!r.ok()) {
      state.SkipWithError("run failed");
      return;
    }
    txns += r->metrics.counts.submitted + r->metrics.updates_generated;
  }
  state.SetItemsProcessed(txns);
  state.SetLabel(policy);
}
BENCHMARK(BM_EngineRun)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

// Whole-engine throughput on the med-unif cell. arg0 is the query arrival
// rate in Hz: 5 is the paper's base rate; 50 is the heavy-traffic regime
// where hundreds of queries queue up and admission runs against a deep
// ready queue.
void BM_EngineThroughput(benchmark::State& state) {
  const double rate_hz = static_cast<double>(state.range(0));
  QueryTraceParams qp;
  qp.seed = 42;
  qp.duration =
      static_cast<SimDuration>(static_cast<double>(qp.duration) * 0.1);
  qp.base_rate_hz = rate_hz;
  auto w = GenerateQueryTrace(qp);
  if (w.ok()) {
    UpdateTraceParams up;
    up.volume = UpdateVolume::kMedium;
    up.distribution = UpdateDistribution::kUniform;
    up.seed = 43;
    const Status s = GenerateUpdateTrace(up, *w);
    if (!s.ok()) w = s;
  }
  if (!w.ok()) {
    state.SkipWithError("workload generation failed");
    return;
  }
  int64_t events = 0;
  for (auto _ : state) {
    auto r = RunExperiment(*w, "unit", UsmWeights{1.0, 0.5, 1.0, 0.5});
    if (!r.ok()) {
      state.SkipWithError("run failed");
      return;
    }
    events += r->metrics.events_processed + r->metrics.events_compacted;
  }
  state.SetItemsProcessed(events);  // scheduled events retired per second
}
BENCHMARK(BM_EngineThroughput)->Arg(5)->Arg(50)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace unitdb

BENCHMARK_MAIN();
