#include "unit/shard/sharded.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "unit/common/fan_out.h"
#include "unit/db/data_item.h"
#include "unit/faults/schedule.h"
#include "unit/model/diff.h"
#include "unit/model/reference_shard.h"
#include "unit/obs/trace_event.h"
#include "unit/obs/trace_sink.h"
#include "unit/workload/query_source.h"

namespace unitdb {
namespace {

/// Everything one shard's run produced: its recorded run (one QueryRecord
/// per resolved sub-query) and, when tracing, its events (untagged).
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
  ep.faults = nullptr;

  FaultSchedule schedule;
  if (params.scenario != nullptr && !params.scenario->empty()) {
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
  std::optional<KeepingSink> keep;
  if (!params.trace_dir.empty() && !params.reference_engines) {
    ep.trace = &keep.emplace();
  }

  auto run = RunRecorded(sub, policy_name, weights, options, ep,
                         params.reference_engines,
                         params.perturb_admit_off_by_one && shard == 0,
                         params.record_series);
  if (!run.ok()) return run.status();
  out.run = std::move(*run);
  if (keep) out.events = std::move(keep->kept);
  return out;
}

/// Writes the kept events of shards [first, last) to `path` through one
/// JSONL sink, tagging each with its shard, in (time, shard, per-shard
/// emission order) order. Each shard emits its events in time order, so
/// that order is one ordered merge.
Status WriteTrace(const std::string& path,
                  const std::vector<ShardRunOutput>& outputs, size_t first,
                  size_t last) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return Status::IoError("cannot open trace file " + path);
  JsonlTraceSink sink(f);
  std::vector<size_t> head(outputs.size(), 0);
  while (true) {
    const TraceEvent* next = nullptr;
    size_t shard = last;
    for (size_t s = first; s < last; ++s) {
      const std::vector<TraceEvent>& events = outputs[s].events;
      if (head[s] < events.size() &&
          (next == nullptr || events[head[s]].time < next->time)) {
        next = &events[head[s]];
        shard = s;
      }
    }
    if (next == nullptr) break;
    ++head[shard];
    TraceEvent tagged = *next;
    tagged.shard = static_cast<int32_t>(shard);
    sink.Emit(tagged);
  }
  sink.Flush();
  if (!f.good()) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

/// One shard a query's read set touches, and how many of its items it owns.
struct Touch {
  int shard;
  int items;
};

/// The shards `items` touches, in first-touch order (ShardRouter::Split's
/// order); an empty read set goes to shard 0.
void Route(const ShardRouter& router, const std::vector<ItemId>& items,
           std::vector<Touch>* touched) {
  touched->clear();
  for (const ItemId item : items) {
    const int s = router.ShardOf(item);
    const auto it = std::find_if(touched->begin(), touched->end(),
                                 [s](const Touch& t) { return t.shard == s; });
    if (it == touched->end()) {
      touched->push_back(Touch{s, 1});
    } else {
      ++it->items;
    }
  }
  if (touched->empty()) touched->push_back(Touch{0, 0});
}

/// Rewrites `q`, routed as `touched`, in place into the sub-query `shard`
/// gets of it; returns false when `q` reads nothing on `shard`. `parent` is
/// the query's position in the parent trace.
bool ToSubQuery(const ShardRouter& router, int shard, size_t parent,
                const std::vector<Touch>& touched, QueryRequest* q) {
  const auto it =
      std::find_if(touched.begin(), touched.end(),
                   [shard](const Touch& t) { return t.shard == shard; });
  if (it == touched.end()) return false;
  q->id = static_cast<TxnId>(parent);  // parent trace index, for the join
  if (touched.size() == 1) return true;  // single-shard: verbatim
  // Service demand proportional to the sub read-set size, each sub >= 1
  // tick, integer remainder on the last touched shard.
  const auto total = static_cast<SimDuration>(q->items.size());
  const auto share = [&](const Touch& t) {
    return std::max<SimDuration>(
        1, q->exec * static_cast<SimDuration>(t.items) / total);
  };
  SimDuration assigned = 0;
  for (auto k = touched.begin(); k != it; ++k) assigned += share(*k);
  q->exec = it + 1 == touched.end()
                ? std::max<SimDuration>(1, q->exec - assigned)
                : share(*it);
  std::erase_if(q->items,
                [&](ItemId item) { return router.ShardOf(item) != shard; });
  return true;
}

/// One shard's sub-trace as a view over the parent trace: each cursor reads
/// the parent's own cursor and yields only the sub-queries routed to
/// `shard`, so no sub-trace is ever stored. `parent` must outlive the view.
class ShardQueryView final : public QuerySource {
 public:
  ShardQueryView(const Workload* parent, ShardRouter router, int shard,
                 int64_t count)
      : parent_(parent), router_(router), shard_(shard), count_(count) {}

  int64_t count() const override { return count_; }
  std::unique_ptr<QueryCursor> NewCursor() const override {
    return std::make_unique<Cursor>(parent_->NewQueryCursor(), router_,
                                    shard_);
  }

 private:
  class Cursor final : public QueryCursor {
   public:
    Cursor(std::unique_ptr<QueryCursor> parent, ShardRouter router, int shard)
        : parent_(std::move(parent)), router_(router), shard_(shard) {}

    bool Next(QueryRequest* out) override {
      while (parent_->Next(out)) {
        const size_t position = position_++;
        Route(router_, out->items, &touched_);
        if (ToSubQuery(router_, shard_, position, touched_, out)) return true;
      }
      return false;
    }

   private:
    std::unique_ptr<QueryCursor> parent_;
    ShardRouter router_;
    int shard_;
    size_t position_ = 0;
    std::vector<Touch> touched_;
  };

  const Workload* parent_;
  ShardRouter router_;
  int shard_;
  int64_t count_;
};

/// Join state of one parent. Only a cross-shard parent keeps it between
/// records: from its first sub-query's to its last's.
struct PendingParent {
  int seen = 0;
  Outcome outcome = Outcome::kPending;
  double freshness = std::numeric_limits<double>::infinity();
  SimTime commit = -1;
  int restarts = 0;
  // Arrival and class come from the highest-numbered shard's record, the
  // last one a shard-major fold would see: with sessions on, each shard's
  // kept record is its own last attempt, and their arrivals differ.
  int last_shard = -1;
  SimTime arrival = 0;
  int pref_class = 0;
};

/// Folds one sub-query record from shard `shard` into its parent's join
/// state. Every fold but the arrival and class is order-independent.
void FoldSub(const QueryRecord& rec, int shard, PendingParent* p) {
  p->outcome =
      p->seen == 0 ? rec.outcome : CrossShardJoin(p->outcome, rec.outcome);
  if (rec.outcome == Outcome::kSuccess || rec.outcome == Outcome::kDataStale) {
    // Committed sub: parent freshness is the min over committed subs
    // (exactly the monolithic Eq. 1 value — QueryFreshness is itself a min
    // over the read set), commit instant the latest sub commit.
    p->freshness = std::min(p->freshness, rec.observed_freshness);
    p->commit = std::max(p->commit, rec.commit_time);
  }
  p->restarts += rec.restarts;
  if (shard > p->last_shard) {
    p->last_shard = shard;
    p->arrival = rec.arrival;
    p->pref_class = rec.preference_class;
  }
  ++p->seen;
}

/// Folds one joined parent into the merged parent-level accounting and
/// appends its record. Called in merged resolution order.
void EmitParent(const PendingParent& p, TxnId trace_id, SimTime resolve_time,
                RunMetrics* merged, std::vector<ShardQueryRecord>* out) {
  const bool committed =
      p.outcome == Outcome::kSuccess || p.outcome == Outcome::kDataStale;
  ++merged->counts.submitted;
  merged->counts.Bump(p.outcome);
  const auto cls = static_cast<size_t>(p.pref_class);
  if (cls >= merged->per_class_counts.size()) {
    merged->per_class_counts.resize(cls + 1);
  }
  ++merged->per_class_counts[cls].submitted;
  merged->per_class_counts[cls].Bump(p.outcome);
  if (committed) {
    merged->query_response_s.Add(SimToSeconds(p.commit - p.arrival));
    merged->query_freshness.Add(p.freshness);
  }
  ShardQueryRecord rec;
  rec.trace_id = trace_id;
  rec.outcome = p.outcome;
  rec.observed_freshness = committed ? p.freshness : -1.0;
  rec.commit_time = committed ? p.commit : -1;
  rec.resolve_time = resolve_time;
  rec.restarts = p.restarts;
  rec.preference_class = p.pref_class;
  rec.subqueries = p.seen;
  out->push_back(rec);
}

/// The join's failure for a parent that did not join exactly `expected`
/// sub-queries.
Status JoinError(size_t parent, int seen, int expected) {
  return Status::Internal("parent " + std::to_string(parent) + " joined " +
                          std::to_string(seen) + "/" +
                          std::to_string(expected) + " sub-queries");
}

/// Joins the shards' sub-query records into parents (CrossShardJoin) and
/// folds them into `merged`'s parent-level fields. Each shard's records are
/// in resolution order, so walking all shards in (resolve time, shard,
/// position) order and emitting a parent when its last sub-query arrives
/// yields the parents in merged resolution order with no sort. Workload
/// parents are keyed by the trace index in QueryRecord::trace_id;
/// fault-injected queries (kInvalidTxn) are their own single-sub parents.
Status JoinParents(const std::vector<const std::vector<QueryRecord>*>& shards,
                   const std::vector<int>& sub_count, bool closed_loop,
                   RunMetrics* merged, std::vector<ShardQueryRecord>* out) {
  const size_t n = shards.size();
  // A parent-wide mask: first "seen on this shard" for the closed-loop
  // filter, then "joined".
  std::vector<char> mask(sub_count.size(), 0);
  // Closed-loop runs resolve one record per *attempt* of a sub-query; the
  // join is over final outcomes, so keep each shard's last record per
  // parent (a reverse scan). Injected and unknown ids are all kept.
  std::vector<std::vector<char>> keep;
  if (closed_loop) {
    keep.resize(n);
    for (size_t s = 0; s < n; ++s) {
      const std::vector<QueryRecord>& records = *shards[s];
      keep[s].assign(records.size(), 1);
      std::fill(mask.begin(), mask.end(), 0);
      for (size_t pos = records.size(); pos-- > 0;) {
        const TxnId id = records[pos].trace_id;
        if (id < 0 || static_cast<size_t>(id) >= mask.size()) continue;
        char& seen = mask[static_cast<size_t>(id)];
        if (seen != 0) keep[s][pos] = 0;
        seen = 1;
      }
    }
    std::fill(mask.begin(), mask.end(), 0);
  }

  std::unordered_map<TxnId, PendingParent> pending;
  std::vector<size_t> head(n, 0);
  size_t joined = 0;
  while (true) {
    // Next record in (resolve time, shard, position) order.
    size_t s = n;
    for (size_t k = 0; k < n; ++k) {
      const std::vector<QueryRecord>& records = *shards[k];
      size_t& h = head[k];
      if (closed_loop) {
        while (h < records.size() && keep[k][h] == 0) ++h;
      }
      if (h < records.size() &&
          (s == n ||
           records[h].resolve_time < (*shards[s])[head[s]].resolve_time)) {
        s = k;
      }
    }
    if (s == n) break;
    const QueryRecord& rec = (*shards[s])[head[s]++];

    PendingParent single;
    PendingParent* p = &single;
    const auto id = static_cast<size_t>(rec.trace_id);
    if (rec.trace_id != kInvalidTxn) {
      if (rec.trace_id < 0 || id >= sub_count.size()) {
        return Status::Internal("sub-query resolved with unknown parent " +
                                std::to_string(rec.trace_id));
      }
      if (mask[id] != 0) {
        return JoinError(id, sub_count[id] + 1, sub_count[id]);
      }
      if (sub_count[id] > 1) p = &pending[rec.trace_id];
    }
    FoldSub(rec, static_cast<int>(s), p);
    if (rec.trace_id != kInvalidTxn) {
      if (p->seen < sub_count[id]) continue;
      mask[id] = 1;
      ++joined;
    }
    EmitParent(*p, rec.trace_id, rec.resolve_time, merged, out);
    if (p != &single) pending.erase(rec.trace_id);
  }
  if (joined == sub_count.size()) return Status::Ok();
  const auto missing = static_cast<size_t>(
      std::find(mask.begin(), mask.end(), 0) - mask.begin());
  const auto it = pending.find(static_cast<TxnId>(missing));
  return JoinError(missing, it == pending.end() ? 0 : it->second.seen,
                   sub_count[missing]);
}

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

  // One counting pass over the parent's cursor; each shard's sub-trace is
  // then a view that re-reads the parent, so nothing is copied.
  std::vector<int64_t> per_shard(static_cast<size_t>(n), 0);
  part.sub_count.reserve(static_cast<size_t>(w.QueryCount()));
  std::vector<Touch> touched;
  auto cursor = w.NewQueryCursor();
  QueryRequest q;
  while (cursor->Next(&q)) {
    Route(router, q.items, &touched);
    for (const Touch& t : touched) ++per_shard[static_cast<size_t>(t.shard)];
    part.sub_count.push_back(static_cast<int>(touched.size()));
    part.subqueries += static_cast<int64_t>(touched.size());
    if (touched.size() > 1) ++part.cross_shard_queries;
  }
  for (int s = 0; s < n; ++s) {
    part.shards[static_cast<size_t>(s)].query_source =
        std::make_shared<ShardQueryView>(&w, router, s,
                                         per_shard[static_cast<size_t>(s)]);
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
  auto part = params.reference_engines
                  ? ReferencePartitionWorkload(workload, router)
                  : PartitionWorkload(workload, router);
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

  // Parent-level accounting replaces the summed sub-query counts and stats.
  merged.counts = OutcomeCounts{};
  merged.per_class_counts.clear();
  merged.query_response_s.Clear();
  merged.query_freshness.Clear();
  std::vector<const std::vector<QueryRecord>*> records;
  records.reserve(outputs.size());
  for (const auto& o : outputs) records.push_back(&o.run.queries);
  const std::vector<int>& sub_count = part.value().sub_count;
  const bool closed_loop = params.engine.session.sessions > 0;
  result.queries.reserve(sub_count.size());
  Status joined =
      params.reference_engines
          ? ReferenceJoinParents(records, sub_count, closed_loop, &merged,
                                 &result.queries)
          : JoinParents(records, sub_count, closed_loop, &merged,
                        &result.queries);
  if (!joined.ok()) return joined;

  result.usm = UsmAverage(merged.counts, weights);
  result.breakdown = UsmDecompose(merged.counts, weights);

  if (!params.trace_dir.empty() && !params.reference_engines) {
    // shard<k>.jsonl per shard, then the global view merged.jsonl.
    const std::string& dir = params.trace_dir;
    for (size_t s = 0; s < outputs.size(); ++s) {
      Status st = WriteTrace(dir + "/shard" + std::to_string(s) + ".jsonl",
                             outputs, s, s + 1);
      if (!st.ok()) return st;
    }
    Status st = WriteTrace(dir + "/merged.jsonl", outputs, 0, outputs.size());
    if (!st.ok()) return st;
  }
  return result;
}

}  // namespace unitdb
