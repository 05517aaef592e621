#ifndef PERFBENCH_TIMING_POLICY_H_
#define PERFBENCH_TIMING_POLICY_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "unit/core/policy.h"

namespace unitdb::perf {

/// Wall time and call count of one policy hook.
struct HookSpan {
  int64_t calls = 0;
  int64_t ns = 0;

  double seconds() const { return static_cast<double>(ns) * 1e-9; }
};

/// Forwards every hook to the wrapped policy and times each call with
/// steady_clock, the way shard/sharded.cc's recording wrapper forwards. The
/// wrapper only reads the clock, so a wrapped run is bit-identical to a bare
/// one. Spans are folded into per-hook totals as they close (a per-call
/// record would grow with the trace, and the traced pass must stay small);
/// control ticks also keep their start instants, which give the wall time
/// per simulated control period.
class TimingPolicy final : public Policy {
 public:
  explicit TimingPolicy(Policy* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }

  void Attach(EngineContext& engine) override {
    const auto t0 = Clock::now();
    inner_->Attach(engine);
    Close(attach, t0);
  }

  bool AdmitQuery(EngineContext& engine, const Transaction& query) override {
    const auto t0 = Clock::now();
    const bool admit = inner_->AdmitQuery(engine, query);
    Close(admit_query, t0);
    return admit;
  }

  bool BeforeQueryDispatch(EngineContext& engine,
                           Transaction& query) override {
    const auto t0 = Clock::now();
    const bool go = inner_->BeforeQueryDispatch(engine, query);
    Close(before_dispatch, t0);
    return go;
  }

  void OnQueryResolved(EngineContext& engine, const Transaction& query,
                       Outcome outcome) override {
    const auto t0 = Clock::now();
    inner_->OnQueryResolved(engine, query, outcome);
    Close(query_resolved, t0);
  }

  void OnUpdateCommit(EngineContext& engine,
                      const Transaction& update) override {
    const auto t0 = Clock::now();
    inner_->OnUpdateCommit(engine, update);
    Close(update_commit, t0);
  }

  void OnUpdateSourceArrival(EngineContext& engine, ItemId item) override {
    const auto t0 = Clock::now();
    inner_->OnUpdateSourceArrival(engine, item);
    Close(source_arrival, t0);
  }

  void OnControlTick(EngineContext& engine) override {
    const auto t0 = Clock::now();
    tick_starts_ns.push_back(Ns(t0.time_since_epoch()));
    inner_->OnControlTick(engine);
    Close(control_tick, t0);
  }

  double AdmissionKnob() const override { return inner_->AdmissionKnob(); }
  bool UsesPeriodicUpdates() const override {
    return inner_->UsesPeriodicUpdates();
  }

  /// Sum over every hook: the part of Engine::Run spent inside the policy.
  int64_t TotalHookNs() const {
    return attach.ns + admit_query.ns + before_dispatch.ns +
           query_resolved.ns + update_commit.ns + source_arrival.ns +
           control_tick.ns;
  }

  HookSpan attach;
  HookSpan admit_query;
  HookSpan before_dispatch;
  HookSpan query_resolved;
  HookSpan update_commit;
  HookSpan source_arrival;
  HookSpan control_tick;
  std::vector<int64_t> tick_starts_ns;

 private:
  using Clock = std::chrono::steady_clock;

  static int64_t Ns(Clock::duration d) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  }
  static void Close(HookSpan& span, Clock::time_point t0) {
    ++span.calls;
    span.ns += Ns(Clock::now() - t0);
  }

  Policy* inner_;
};

}  // namespace unitdb::perf

#endif  // PERFBENCH_TIMING_POLICY_H_
