#include "unit/model/reference_shard.h"

#include <algorithm>
#include <limits>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "unit/workload/query_source.h"

namespace unitdb {
namespace {

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
  // per-shard record index) over the parent's sub-queries.
  SimTime rt = -1;
  int rt_shard = -1;
  int64_t rt_pos = -1;
};

}  // namespace

StatusOr<ShardPartition> ReferencePartitionWorkload(const Workload& w,
                                                    const ShardRouter& router) {
  const int n = router.num_shards();
  ShardPartition part;
  part.shards.resize(static_cast<size_t>(n));
  for (Workload& sub : part.shards) {
    sub.num_items = w.num_items;
    sub.duration = w.duration;
    sub.query_trace_name = w.query_trace_name;
    sub.update_trace_name = w.update_trace_name;
  }
  for (const auto& u : w.updates) {
    part.shards[static_cast<size_t>(router.ShardOf(u.item))].updates.push_back(
        u);
  }

  std::vector<std::vector<ItemId>> groups;
  std::vector<int> touched;
  auto cursor = w.NewQueryCursor();
  QueryRequest q;
  for (size_t p = 0; cursor->Next(&q); ++p) {
    router.Split(q.items, &groups, &touched);
    if (touched.empty()) touched.push_back(0);
    const auto total = static_cast<SimDuration>(q.items.size());
    SimDuration assigned = 0;
    for (size_t k = 0; k < touched.size(); ++k) {
      const int s = touched[k];
      QueryRequest sq = q;
      sq.id = static_cast<TxnId>(p);
      sq.items = groups[static_cast<size_t>(s)];
      if (touched.size() > 1) {
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

Status ReferenceJoinParents(
    const std::vector<const std::vector<QueryRecord>*>& shards,
    const std::vector<int>& sub_count, bool closed_loop, RunMetrics* merged,
    std::vector<ShardQueryRecord>* out) {
  std::vector<ParentAgg> parents(sub_count.size());
  std::vector<ParentAgg> injected;
  for (size_t s = 0; s < shards.size(); ++s) {
    const std::vector<QueryRecord>& records = *shards[s];
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
        p->freshness = std::min(p->freshness, rec.observed_freshness);
        p->commit = std::max(p->commit, rec.commit_time);
      }
      p->arrival = rec.arrival;
      p->restarts += rec.restarts;
      p->pref_class = rec.preference_class;
      p->trace_id = rec.trace_id;
      const auto key = std::make_tuple(rec.resolve_time, static_cast<int>(s),
                                       static_cast<int64_t>(pos));
      if (key > std::make_tuple(p->rt, p->rt_shard, p->rt_pos)) {
        p->rt = rec.resolve_time;
        p->rt_shard = static_cast<int>(s);
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

  std::vector<const ParentAgg*> order;
  order.reserve(parents.size() + injected.size());
  for (const ParentAgg& p : parents) order.push_back(&p);
  for (const ParentAgg& p : injected) order.push_back(&p);
  std::sort(order.begin(), order.end(),
            [](const ParentAgg* a, const ParentAgg* b) {
              return std::tie(a->rt, a->rt_shard, a->rt_pos) <
                     std::tie(b->rt, b->rt_shard, b->rt_pos);
            });

  for (const ParentAgg* p : order) {
    ++merged->counts.submitted;
    merged->counts.Bump(p->outcome);
    if (static_cast<size_t>(p->pref_class) >= merged->per_class_counts.size()) {
      merged->per_class_counts.resize(static_cast<size_t>(p->pref_class) + 1);
    }
    OutcomeCounts& class_counts =
        merged->per_class_counts[static_cast<size_t>(p->pref_class)];
    ++class_counts.submitted;
    class_counts.Bump(p->outcome);
    const bool committed = p->outcome == Outcome::kSuccess ||
                           p->outcome == Outcome::kDataStale;
    if (committed) {
      merged->query_response_s.Add(SimToSeconds(p->commit - p->arrival));
      merged->query_freshness.Add(p->freshness);
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
    out->push_back(rec);
  }
  return Status::Ok();
}

}  // namespace unitdb
