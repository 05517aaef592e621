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
#include "unit/core/update_modulation.h"
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

// One Degrade-Update signal: one lottery pick per sourced item, each
// stretching its victim's period. Items per second are picks.
void BM_LotteryDegrade(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Database db(n);
  std::vector<ItemUpdateSpec> specs(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    specs[i].item = i;
    specs[i].ideal_period = SecondsToSim(1.0);
    specs[i].update_exec = MillisToSim(5.0);
  }
  if (!db.ApplySpecs(specs).ok()) {
    state.SkipWithError("update specs refused");
    return;
  }
  UpdateModulator um(db, ModulationParams{});
  Rng rng(8);
  for (int i = 0; i < n; ++i) {
    um.OnUpdateArrival(i, MillisToSim(rng.Uniform(1.0, 30.0)), 0);
  }
  for (auto _ : state) {
    um.Degrade(db, rng);
  }
  state.SetItemsProcessed(um.total_picks());
}
BENCHMARK(BM_LotteryDegrade)->Arg(1024);

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
  // Two-item queries built up front, so the loop times the table alone.
  std::vector<Transaction> txns;
  txns.reserve(1024);
  for (TxnId id = 0; id < 1024; ++id) {
    txns.push_back(Transaction::MakeQuery(
        id, 0, MillisToSim(10), SecondsToSim(1.0), 0.9,
        {static_cast<ItemId>(rng.UniformInt(0, 1023)),
         static_cast<ItemId>(rng.UniformInt(0, 1023))}));
  }
  size_t i = 0;
  for (auto _ : state) {
    Transaction* q = &txns[i];
    lm.TryAcquireShared(q);
    lm.Release(q);
    i = (i + 1) % txns.size();
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

// The queued queries `q` would newly endanger, read from the engine's own
// projection at unit DMF cost: more than r of them outweigh a rejection
// costing r + 0.5. Binary search over r in [0, queued].
int64_t Endangered(const EngineContext& e, const Transaction& q,
                   int64_t queued) {
  int64_t lo = 0;
  int64_t hi = queued;
  while (lo < hi) {
    const int64_t mid = (lo + hi) / 2;
    const bool more = e.ProjectAdmission(q.absolute_deadline(), q.estimate(),
                                         1.0, static_cast<double>(mid) + 0.5)
                          .endangers;
    if (more) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Admission control: cost of one Admit() decision as the ready queue grows.
// arg0 = queue length, arg1 = 0 for the reference engine's O(N_rq) ready-queue
// scan (model/reference_engine.h), 1 for the engine's online admission index
// (O(log N_rq)). A head query pins the CPU for 900 s while `queue_len`
// queries pile up behind it, all due after the head so none preempts it;
// the last arrival is the measured candidate. Each row replays its engine
// once: when the candidate arrives, the policy hook runs the benchmark loop,
// timing one Admit() call per iteration (Admit only bumps its own counters,
// so every call makes the same decision). Queued query r finishes at
// 900 s + (r + 1) d in the EDF projection, d = 120 s / queue_len, and is due
// (queue_len - r) d / 2 after that: the slacks shrink along the queue and
// only the last one, d / 2, is under the candidate's demand d. The
// candidate is due mid-queue, so the EST sums the earlier half and both
// engines walk the later half to the one query the candidate endangers (the
// `endangered` counter).
void BM_AdmissionScan(benchmark::State& state) {
  const int queue_len = static_cast<int>(state.range(0));
  const bool indexed = state.range(1) != 0;
  const SimTime start = SecondsToSim(900.0);
  const SimDuration demand = SecondsToSim(120.0) / queue_len;
  const auto due = [&](int r) {
    return start + (r + 1) * demand + (queue_len - r) * demand / 2;
  };
  Workload w;
  w.num_items = 16;
  w.duration = SecondsToSim(1100.0);
  QueryRequest head;
  head.id = 0;
  head.arrival = 0;
  head.exec = start;
  head.relative_deadline = SecondsToSim(950.0);
  head.items = {0};
  w.queries.push_back(head);
  for (int i = 0; i < queue_len; ++i) {
    QueryRequest q;
    q.id = i + 1;
    q.arrival = SecondsToSim(0.001 * (i + 1));
    q.exec = demand;
    q.relative_deadline = due(i) - q.arrival;
    q.items = {static_cast<ItemId>(i % 16)};
    w.queries.push_back(q);
  }
  // The candidate arrives 1 ms after the last queued query, due between
  // the two middle ones.
  QueryRequest cand = w.queries.back();
  cand.id = queue_len + 1;
  cand.arrival += MillisToSim(1.0);
  cand.relative_deadline =
      (due(queue_len / 2 - 1) + due(queue_len / 2)) / 2 - cand.arrival;
  w.queries.push_back(cand);

  struct Probe : Policy {
    AdmissionController ac{{}, UsmWeights{1.0, 0.5, 1.0, 0.5}};
    benchmark::State* state = nullptr;
    TxnId candidate_id = 0;
    int64_t endangered = -1;
    std::string name() const override { return "probe"; }
    bool AdmitQuery(EngineContext& e, const Transaction& q) override {
      if (q.id() != candidate_id) return true;
      for (auto _ : *state) {
        const auto t0 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(ac.Admit(e, q));
        const auto t1 = std::chrono::steady_clock::now();
        state->SetIterationTime(
            std::chrono::duration<double>(t1 - t0).count());
      }
      // Queries 1 .. candidate_id - 1 are queued behind the head.
      endangered = Endangered(e, q, candidate_id - 1);
      return true;
    }
  };
  Probe probe;
  probe.state = &state;
  probe.candidate_id = queue_len + 1;
  if (indexed) {
    Engine(w, &probe, {}).Run();
  } else {
    ReferenceEngine(w, &probe, {}).Run();
  }
  state.counters["endangered"] = static_cast<double>(probe.endangered);
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
    ->Iterations(100)  // fixed, so each repetition replays its engine once
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
    auto r = RunExperiment(*w, {.policy = policy});
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
    auto r = RunExperiment(*w, {.weights = {1.0, 0.5, 1.0, 0.5}});  // unit
    if (!r.ok()) {
      state.SkipWithError("run failed");
      return;
    }
    events += r->metrics.events_processed;
  }
  state.SetItemsProcessed(events);  // events handled per second
}
BENCHMARK(BM_EngineThroughput)->Arg(5)->Arg(50)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace unitdb

BENCHMARK_MAIN();
