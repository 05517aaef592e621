#include "unit/shard/sharded.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "unit/common/thread_pool.h"
#include "unit/db/data_item.h"
#include "unit/faults/schedule.h"
#include "unit/model/diff.h"
#include "unit/obs/trace_event.h"
#include "unit/obs/trace_sink.h"
#include "unit/workload/query_source.h"

namespace unitdb {
namespace {

/// Stamps the shard index onto every event, forwards to the shard's own
/// JSONL file, and keeps an in-memory copy for the merged global trace.
class ShardTagSink final : public TraceSink {
 public:
  ShardTagSink(TraceSink* file, int shard, std::vector<TraceEvent>* collect)
      : file_(file), shard_(shard), collect_(collect) {}

  void Emit(const TraceEvent& e) override {
    TraceEvent tagged = e;
    tagged.shard = shard_;
    if (file_ != nullptr) file_->Emit(tagged);
    if (collect_ != nullptr) collect_->push_back(tagged);
  }

  void Flush() override {
    if (file_ != nullptr) file_->Flush();
  }

 private:
  TraceSink* file_;
  int shard_;
  std::vector<TraceEvent>* collect_;
};

/// Everything one shard's run produced: its recorded run (one QueryRecord
/// per resolved sub-query) and, when tracing, its tagged events.
struct ShardRunOutput {
  DiffRun run;
  std::vector<TraceEvent> events;
};

/// Scopes a scenario to one shard's sub-workload (shards > 1 only; with one
/// shard the input scenario passes through verbatim so compilation is
/// bit-identical to the monolithic path). Each shard's fault layer draws
/// its own decorrelated injection stream — the sharded analogue of
/// per-replication compilation:
///  - load steps are dropped on a shard whose sub-trace has no queries
///    (there are no templates to clone, and the monolithic compiler
///    rejects that as an error rather than a no-op);
///  - outage/burst item selections are restricted to items this shard owns
///    and sources, and the fault is dropped when nothing remains;
///  - service-slowdown and freshness-shift windows broadcast to all shards.
/// Fails on a malformed item selector, naming the fault and the selector.
StatusOr<FaultScenarioSpec> ScopeScenario(const FaultScenarioSpec& spec,
                                          const Workload& sub) {
  const std::vector<char> has_source = UpdateSourceMask(sub);
  const bool any_source =
      std::find(has_source.begin(), has_source.end(), char{1}) !=
      has_source.end();

  FaultScenarioSpec scoped = spec;
  scoped.faults.clear();
  for (size_t i = 0; i < spec.faults.size(); ++i) {
    const FaultSpec& fault = spec.faults[i];
    switch (fault.kind) {
      case FaultKind::kLoadStep:
      case FaultKind::kRetryStorm:
        // Both clone query templates from the sub-trace; drop on a shard
        // with nothing to clone.
        if (sub.QueryCount() > 0) scoped.faults.push_back(fault);
        break;
      case FaultKind::kUpdateOutage:
      case FaultKind::kUpdateBurst: {
        if (fault.items == "*") {
          if (any_source) scoped.faults.push_back(fault);
          break;
        }
        std::vector<ItemId> selected;
        Status s = ParseItemSelection(fault.items, sub.num_items, &selected);
        if (!s.ok()) {
          return Status::InvalidArgument("fault" + std::to_string(i) + ": " +
                                         s.message());
        }
        std::string owned;
        for (ItemId id : selected) {
          if (!has_source[static_cast<size_t>(id)]) continue;
          if (!owned.empty()) owned += ',';
          owned += std::to_string(id);
        }
        if (owned.empty()) break;  // nothing this shard sources: drop
        FaultSpec f = fault;
        f.items = std::move(owned);
        scoped.faults.push_back(f);
        break;
      }
      case FaultKind::kServiceSlowdown:
      case FaultKind::kFreshnessShift:
        scoped.faults.push_back(fault);
        break;
    }
  }
  return scoped;
}

/// Runs one shard's full server stack over its sub-workload.
StatusOr<ShardRunOutput> RunOneShard(const Workload& sub, int shard,
                                     int num_shards,
                                     const std::string& policy_name,
                                     const UsmWeights& weights,
                                     const ShardedParams& params) {
  PolicyOptions options = params.options;
  options.unit.seed = ShardSeed(params.options.unit.seed, shard, num_shards);
  EngineParams ep = params.engine;
  ep.seed = ShardSeed(params.engine.seed, shard, num_shards);
  ep.trace = nullptr;
  ep.counters = nullptr;
  ep.faults = nullptr;

  FaultSchedule schedule;
  if (params.scenario != nullptr && !params.scenario->empty() &&
      (params.fault_target_shard < 0 || params.fault_target_shard == shard)) {
    StatusOr<FaultScenarioSpec> scoped =
        num_shards == 1 ? StatusOr<FaultScenarioSpec>(*params.scenario)
                        : ScopeScenario(*params.scenario, sub);
    if (!scoped.ok()) return scoped.status();
    if (!scoped->empty()) {
      auto compiled = FaultSchedule::Compile(
          *scoped, sub, ShardSeed(params.fault_seed, shard, num_shards));
      if (!compiled.ok()) return compiled.status();
      schedule = std::move(compiled).value();
      if (!schedule.empty()) ep.faults = &schedule;
    }
  }

  ShardRunOutput out;
  std::unique_ptr<JsonlTraceSink> file_sink;
  std::unique_ptr<ShardTagSink> tag;
  if (!params.trace_dir.empty() && !params.reference_engines) {
    auto sink = JsonlTraceSink::Open(params.trace_dir + "/shard" +
                                     std::to_string(shard) + ".jsonl");
    if (!sink.ok()) return sink.status();
    file_sink = std::move(sink).value();
    tag = std::make_unique<ShardTagSink>(file_sink.get(), shard, &out.events);
    ep.trace = tag.get();
  }

  auto run = RunRecorded(sub, policy_name, weights, options, ep,
                         params.reference_engines,
                         params.perturb_admit_off_by_one && shard == 0,
                         params.record_series);
  if (!run.ok()) return run.status();
  if (tag != nullptr) tag->Flush();
  out.run = std::move(*run);
  return out;
}

/// Writes the merged global trace: every shard's tagged events, sorted by
/// (time, shard, per-shard emission order).
Status WriteMergedTrace(const std::vector<ShardRunOutput>& outputs,
                        const std::string& dir) {
  struct Tagged {
    SimTime time;
    int shard;
    size_t idx;
    const TraceEvent* e;
  };
  std::vector<Tagged> all;
  for (size_t s = 0; s < outputs.size(); ++s) {
    for (size_t i = 0; i < outputs[s].events.size(); ++i) {
      all.push_back(Tagged{outputs[s].events[i].time, static_cast<int>(s), i,
                           &outputs[s].events[i]});
    }
  }
  std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    return std::tie(a.time, a.shard, a.idx) < std::tie(b.time, b.shard, b.idx);
  });
  const std::string path = dir + "/merged.jsonl";
  std::ofstream f(path, std::ios::trunc);
  if (!f) return Status::Internal("cannot open " + path);
  char buf[512];
  for (const Tagged& t : all) {
    const size_t n = FormatJsonl(*t.e, buf, sizeof(buf));
    f.write(buf, static_cast<std::streamsize>(n));
    f.put('\n');
  }
  f.flush();
  if (!f.good()) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

/// Join state for one parent query while folding sub-records.
struct ParentAgg {
  bool any = false;
  int expected = 1;
  int seen = 0;
  Outcome outcome = Outcome::kPending;
  double freshness = std::numeric_limits<double>::infinity();
  SimTime arrival = 0;
  SimTime commit = -1;
  int restarts = 0;
  int pref_class = 0;
  TxnId trace_id = kInvalidTxn;
  // Merged resolution instant: lexicographic max of (resolve_time, shard,
  // per-shard record index) over the parent's sub-queries. At shards=1 this
  // degenerates to shard 0's resolution order, which is what makes the
  // merged stat fold bit-identical to the monolithic engine's.
  SimTime rt = -1;
  int rt_shard = -1;
  int64_t rt_pos = -1;
};

}  // namespace

void MergeShardMetrics(RunMetrics& merged, const RunMetrics& shard) {
  ForEachRunMetricsField([&]<typename Field>(Field) {
    auto& into = merged.*Field::member;
    const auto& from = shard.*Field::member;
    if constexpr (Field::merge == ShardMerge::kSum) {
      into += from;
    } else if constexpr (Field::merge == ShardMerge::kMax) {
      into = std::max(into, from);
    } else if constexpr (Field::merge == ShardMerge::kStat) {
      into.Merge(from);
    } else if constexpr (Field::merge == ShardMerge::kPerItem) {
      for (size_t i = 0; i < std::min(into.size(), from.size()); ++i) {
        into[i] += from[i];
      }
    } else if constexpr (Field::merge == ShardMerge::kObs) {
      into.clear();  // same names, different per-shard meanings
    }
  });
}

std::vector<WindowSample> MergeSeries(
    const std::vector<std::vector<WindowSample>>& per_shard,
    const UsmWeights& weights) {
  if (per_shard.size() == 1) return per_shard[0];
  struct Tagged {
    double t;
    int shard;
    size_t idx;
    const WindowSample* s;
  };
  std::vector<Tagged> all;
  for (size_t s = 0; s < per_shard.size(); ++s) {
    for (size_t i = 0; i < per_shard[s].size(); ++i) {
      all.push_back(
          Tagged{per_shard[s][i].t_s, static_cast<int>(s), i, &per_shard[s][i]});
    }
  }
  std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    return std::tie(a.t, a.shard, a.idx) < std::tie(b.t, b.shard, b.idx);
  });

  TimeSeriesRecorder merged(weights);  // Record() re-derives `usm`
  size_t i = 0;
  while (i < all.size()) {
    size_t end = i + 1;
    while (end < all.size() && all[end].t == all[i].t) ++end;
    WindowSample m = *all[i].s;
    ForEachWindowSampleField([&]<typename Field>(Field) {
      auto& into = m.*Field::member;
      if constexpr (Field::merge == WindowMerge::kSum) {
        for (size_t j = i + 1; j < end; ++j) into += all[j].s->*Field::member;
      } else if constexpr (Field::merge == WindowMerge::kMax) {
        for (size_t j = i + 1; j < end; ++j) {
          into = std::max(into, all[j].s->*Field::member);
        }
      } else if constexpr (Field::merge == WindowMerge::kKnobMean) {
        int n = std::isnan(into) ? 0 : 1;
        double sum = n > 0 ? into : 0.0;
        for (size_t j = i + 1; j < end; ++j) {
          const double v = all[j].s->*Field::member;
          if (!std::isnan(v)) {
            sum += v;
            ++n;
          }
        }
        into = n > 0 ? sum / static_cast<double>(n)
                     : std::numeric_limits<double>::quiet_NaN();
      }
    });
    merged.Record(m);
    i = end;
  }
  return merged.samples();
}

StatusOr<ShardPartition> PartitionWorkload(const Workload& w,
                                           const ShardRouter& router) {
  const int n = router.num_shards();
  ShardPartition part;
  part.shards.resize(static_cast<size_t>(n));
  for (Workload& sub : part.shards) {
    sub.num_items = w.num_items;  // global item-id space on every shard
    sub.duration = w.duration;
    sub.query_trace_name = w.query_trace_name;
    sub.update_trace_name = w.update_trace_name;
  }
  for (const auto& u : w.updates) {
    part.shards[static_cast<size_t>(router.ShardOf(u.item))].updates.push_back(
        u);
  }

  // One cursor pass deals the trace's queries out to the shards' own
  // vectors; the parent trace itself is never copied.
  part.sub_count.reserve(static_cast<size_t>(w.QueryCount()));
  std::vector<std::vector<ItemId>> groups;
  std::vector<int> touched;
  auto cursor = w.NewQueryCursor();
  QueryRequest q;
  for (size_t p = 0; cursor->Next(&q); ++p) {
    router.Split(q.items, &groups, &touched);
    if (touched.empty()) touched.push_back(0);  // defensive: empty read set
    const auto total = static_cast<SimDuration>(q.items.size());
    SimDuration assigned = 0;
    for (size_t k = 0; k < touched.size(); ++k) {
      const int s = touched[k];
      QueryRequest sq = q;
      sq.id = static_cast<TxnId>(p);  // parent trace index, for the join
      sq.items = groups[static_cast<size_t>(s)];
      if (touched.size() > 1) {
        // Service demand proportional to the sub read-set size, each sub
        // >= 1 tick, integer remainder on the last touched shard.
        if (k + 1 < touched.size()) {
          sq.exec = std::max<SimDuration>(
              1, q.exec * static_cast<SimDuration>(sq.items.size()) / total);
          assigned += sq.exec;
        } else {
          sq.exec = std::max<SimDuration>(1, q.exec - assigned);
        }
      }
      part.shards[static_cast<size_t>(s)].queries.push_back(std::move(sq));
    }
    part.sub_count.push_back(static_cast<int>(touched.size()));
    part.subqueries += static_cast<int64_t>(touched.size());
    if (touched.size() > 1) ++part.cross_shard_queries;
  }
  return part;
}

Outcome CrossShardJoin(Outcome a, Outcome b) {
  // Dominant-penalty order (paper Fig. 2): reject > deadline miss > stale.
  // A parent succeeds only if every sub-query succeeded.
  auto rank = [](Outcome o) {
    switch (o) {
      case Outcome::kRejected:
        return 3;
      case Outcome::kDeadlineMiss:
        return 2;
      case Outcome::kDataStale:
        return 1;
      default:
        return 0;
    }
  };
  return rank(a) >= rank(b) ? a : b;
}

StatusOr<ShardedResult> RunSharded(const Workload& workload,
                                   const std::string& policy,
                                   const UsmWeights& weights,
                                   const ShardedParams& params) {
  const int n = params.shards < 1 ? 1 : params.shards;
  const ShardRouter router(n);
  auto part = PartitionWorkload(workload, router);
  if (!part.ok()) return part.status();

  if (!params.trace_dir.empty() && !params.reference_engines) {
    std::error_code ec;
    std::filesystem::create_directories(params.trace_dir, ec);
    if (ec) {
      return Status::Internal("trace_dir " + params.trace_dir + ": " +
                              ec.message());
    }
  }

  // Run the shards; FanOut returns them by shard index, so completion order
  // is irrelevant to every fold below.
  auto ran = FanOut(n, params.jobs, [&](int s) {
    return RunOneShard(part.value().shards[static_cast<size_t>(s)], s, n,
                       policy, weights, params);
  });
  if (!ran.ok()) return ran.status();
  const std::vector<ShardRunOutput>& outputs = *ran;

  ShardedResult result;
  result.cross_shard_queries = part.value().cross_shard_queries;
  result.subqueries = part.value().subqueries;
  result.per_shard.reserve(static_cast<size_t>(n));
  for (const auto& o : outputs) result.per_shard.push_back(o.run.metrics);
  if (params.record_series) {
    result.per_shard_series.reserve(static_cast<size_t>(n));
    for (const auto& o : outputs) {
      result.per_shard_series.push_back(o.run.series);
    }
    result.merged_series = MergeSeries(result.per_shard_series, weights);
  }

  // Shard 0's metrics as the base, every other shard folded in by each
  // field's ShardMerge rule; the join below recomputes the kJoin fields.
  RunMetrics& merged = result.metrics;
  merged = outputs[0].run.metrics;
  for (int s = 1; s < n; ++s) {
    MergeShardMetrics(merged, outputs[static_cast<size_t>(s)].run.metrics);
  }

  // Join sub-queries back into parents. Workload parents are keyed by the
  // trace index carried in Transaction::trace_id; fault-injected queries
  // (trace_id kInvalidTxn) are their own single-sub parents.
  const std::vector<int>& sub_count = part.value().sub_count;
  std::vector<ParentAgg> parents(sub_count.size());
  std::vector<ParentAgg> injected;
  // Closed-loop runs resolve one sub-record per *attempt* of a parent's
  // sub-query on its home shard. The parent join is over final outcomes, so
  // pre-filter each shard's records to the last record per parent (original
  // positions preserved for the (resolve_time, shard, pos) merge key;
  // injected queries have no sessions and every record kept). When sessions
  // are off the mask is all-ones and the join below is unchanged.
  const bool closed_loop = params.engine.session.sessions > 0;
  for (int s = 0; s < n; ++s) {
    const auto& records = outputs[static_cast<size_t>(s)].run.queries;
    std::vector<char> keep;
    if (closed_loop) {
      keep.assign(records.size(), 0);
      std::unordered_map<TxnId, size_t> last;
      for (size_t pos = 0; pos < records.size(); ++pos) {
        if (records[pos].trace_id == kInvalidTxn) {
          keep[pos] = 1;
        } else {
          last[records[pos].trace_id] = pos;
        }
      }
      for (const auto& [id, pos] : last) keep[pos] = 1;
    }
    for (size_t pos = 0; pos < records.size(); ++pos) {
      if (closed_loop && keep[pos] == 0) continue;
      const QueryRecord& rec = records[pos];
      ParentAgg* p;
      if (rec.trace_id == kInvalidTxn) {
        injected.emplace_back();
        p = &injected.back();
      } else {
        if (rec.trace_id < 0 ||
            static_cast<size_t>(rec.trace_id) >= parents.size()) {
          return Status::Internal("sub-query resolved with unknown parent " +
                                  std::to_string(rec.trace_id));
        }
        p = &parents[static_cast<size_t>(rec.trace_id)];
        p->expected = sub_count[static_cast<size_t>(rec.trace_id)];
      }
      p->outcome = p->any ? CrossShardJoin(p->outcome, rec.outcome)
                          : rec.outcome;
      p->any = true;
      ++p->seen;
      if (rec.outcome == Outcome::kSuccess ||
          rec.outcome == Outcome::kDataStale) {
        // Committed sub: parent freshness is the min over committed subs
        // (exactly the monolithic Eq. 1 value — QueryFreshness is itself a
        // min over the read set), commit instant the latest sub commit.
        p->freshness = std::min(p->freshness, rec.observed_freshness);
        p->commit = std::max(p->commit, rec.commit_time);
      }
      p->arrival = rec.arrival;
      p->restarts += rec.restarts;
      p->pref_class = rec.preference_class;
      p->trace_id = rec.trace_id;
      const auto key = std::make_tuple(rec.resolve_time, s,
                                       static_cast<int64_t>(pos));
      if (key > std::make_tuple(p->rt, p->rt_shard, p->rt_pos)) {
        p->rt = rec.resolve_time;
        p->rt_shard = s;
        p->rt_pos = static_cast<int64_t>(pos);
      }
    }
  }
  for (size_t i = 0; i < parents.size(); ++i) {
    if (!parents[i].any || parents[i].seen != parents[i].expected) {
      return Status::Internal(
          "parent " + std::to_string(i) + " joined " +
          std::to_string(parents[i].seen) + "/" +
          std::to_string(parents[i].expected) + " sub-queries");
    }
  }

  // Parent-level accounting, folded in merged resolution order: sort by
  // (last sub resolve time, shard, per-shard index) — a total order over
  // unique keys, identical for every jobs count, and equal to shard 0's
  // resolution order when shards=1 (bit-identical stat folds).
  std::vector<const ParentAgg*> order;
  order.reserve(parents.size() + injected.size());
  for (const ParentAgg& p : parents) order.push_back(&p);
  for (const ParentAgg& p : injected) order.push_back(&p);
  std::sort(order.begin(), order.end(),
            [](const ParentAgg* a, const ParentAgg* b) {
              return std::tie(a->rt, a->rt_shard, a->rt_pos) <
                     std::tie(b->rt, b->rt_shard, b->rt_pos);
            });

  merged.counts = OutcomeCounts{};
  merged.per_class_counts.clear();
  merged.query_response_s.Clear();
  merged.query_freshness.Clear();
  result.queries.reserve(order.size());
  for (const ParentAgg* p : order) {
    ++merged.counts.submitted;
    merged.counts.Bump(p->outcome);
    if (static_cast<size_t>(p->pref_class) >= merged.per_class_counts.size()) {
      merged.per_class_counts.resize(
          static_cast<size_t>(p->pref_class) + 1);
    }
    OutcomeCounts& class_counts =
        merged.per_class_counts[static_cast<size_t>(p->pref_class)];
    ++class_counts.submitted;
    class_counts.Bump(p->outcome);
    const bool committed = p->outcome == Outcome::kSuccess ||
                           p->outcome == Outcome::kDataStale;
    if (committed) {
      merged.query_response_s.Add(SimToSeconds(p->commit - p->arrival));
      merged.query_freshness.Add(p->freshness);
    }

    ShardQueryRecord rec;
    rec.trace_id = p->trace_id;
    rec.outcome = p->outcome;
    rec.observed_freshness = committed ? p->freshness : -1.0;
    rec.commit_time = committed ? p->commit : -1;
    rec.resolve_time = p->rt;
    rec.restarts = p->restarts;
    rec.preference_class = p->pref_class;
    rec.subqueries = p->seen;
    result.queries.push_back(rec);
  }

  result.usm = UsmAverage(merged.counts, weights);
  result.breakdown = UsmDecompose(merged.counts, weights);

  if (!params.trace_dir.empty() && !params.reference_engines) {
    Status s = WriteMergedTrace(outputs, params.trace_dir);
    if (!s.ok()) return s;
  }
  return result;
}

}  // namespace unitdb
