#include "unit/faults/schedule.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "unit/common/rng.h"
#include "unit/db/data_item.h"
#include "unit/workload/query_source.h"

namespace unitdb {

namespace {

Status CompileError(size_t index, const std::string& what) {
  return Status::InvalidArgument("fault" + std::to_string(index) + ": " +
                                 what);
}

/// Resolves a FaultSpec's item selection ("a-b", "a,b,c", "*") against the
/// workload; every resolved item must have an update source, since an
/// outage/burst on a never-updated item would be a silent no-op.
Status ResolveItems(const FaultSpec& fault, size_t index,
                    const Workload& workload,
                    const std::vector<char>& has_source,
                    std::vector<ItemId>* out) {
  if (fault.items == "*") {
    for (ItemId id = 0; id < workload.num_items; ++id) {
      if (has_source[id]) out->push_back(id);
    }
    if (out->empty()) {
      return CompileError(index, "'*' matched no item with an update source");
    }
    return Status::Ok();
  }
  Status s = ParseItemSelection(fault.items, workload.num_items, out);
  if (!s.ok()) return CompileError(index, s.message());
  for (ItemId id : *out) {
    if (!has_source[id]) {
      return CompileError(index, "item " + std::to_string(id) +
                                     " has no update source");
    }
  }
  return Status::Ok();
}

/// One injected query whose template is still to be read from the trace.
struct TemplatePick {
  int64_t position = 0;  ///< template's position in the query trace
  size_t slot = 0;       ///< index into the injected query list
  bool storm = false;    ///< a retry-storm clone
};

/// Copies each picked template into its slot in one pass of the trace's
/// cursor, so a streamed trace is never materialized. The slot keeps the
/// arrival drawn for it; the id is cleared (the engine assigns txn ids) and
/// a retry-storm slot gets an eighth of the template's deadline.
void FillTemplates(const Workload& workload, std::vector<TemplatePick> picks,
                   std::vector<QueryRequest>* injected) {
  std::sort(picks.begin(), picks.end(),
            [](const TemplatePick& a, const TemplatePick& b) {
              return a.position < b.position;
            });
  auto cursor = workload.NewQueryCursor();
  QueryRequest q;
  int64_t position = -1;
  for (const TemplatePick& pick : picks) {
    while (position < pick.position && cursor->Next(&q)) ++position;
    QueryRequest& out = (*injected)[pick.slot];
    const SimTime arrival = out.arrival;
    out = q;
    out.id = kInvalidTxn;
    out.arrival = arrival;
    if (pick.storm) {
      // Near-certain misses. The injected queries themselves are never
      // retried (no trace id); their contribution is the load spike that
      // makes *session* queries miss and re-enter.
      out.relative_deadline =
          std::max<SimDuration>(1, q.relative_deadline / 8);
    }
  }
}

}  // namespace

Status ParseItemSelection(const std::string& items, int num_items,
                          std::vector<ItemId>* out) {
  size_t pos = 0;
  while (pos <= items.size()) {
    size_t comma = items.find(',', pos);
    if (comma == std::string::npos) comma = items.size();
    const std::string token = items.substr(pos, comma - pos);
    if (token.empty()) {
      return Status::InvalidArgument("empty item selector token in '" +
                                     items + "'");
    }
    const size_t dash = token.find('-');
    char* end = nullptr;
    const long lo = std::strtol(token.c_str(), &end, 10);
    long hi = lo;
    bool ok = end != token.c_str();
    if (ok && dash != std::string::npos) {
      const char* hs = token.c_str() + dash + 1;
      hi = std::strtol(hs, &end, 10);
      ok = end != hs;
    }
    if (!ok) {
      return Status::InvalidArgument("bad item selector '" + token + "'");
    }
    if (lo < 0 || hi < lo || hi >= num_items) {
      return Status::InvalidArgument(
          "item selector '" + token + "' out of range (num_items = " +
          std::to_string(num_items) + ")");
    }
    for (long id = lo; id <= hi; ++id) out->push_back(static_cast<ItemId>(id));
    pos = comma + 1;
    if (comma == items.size()) break;
  }
  return Status::Ok();
}

std::vector<char> UpdateSourceMask(const Workload& workload) {
  std::vector<char> has_source(static_cast<size_t>(workload.num_items), 0);
  for (const auto& u : workload.updates) {
    if (u.ideal_period <= 0 || u.ideal_period >= kNoUpdates) continue;
    if (u.item >= 0 && u.item < workload.num_items) {
      has_source[static_cast<size_t>(u.item)] = 1;
    }
  }
  return has_source;
}

StatusOr<FaultSchedule> FaultSchedule::Compile(const FaultScenarioSpec& spec,
                                               const Workload& workload,
                                               uint64_t workload_seed) {
  FaultSchedule schedule;
  schedule.spec_ = spec;
  if (spec.faults.empty()) return schedule;

  const std::vector<char> has_source = UpdateSourceMask(workload);
  const int64_t trace_size = workload.QueryCount();
  std::vector<TemplatePick> picks;

  // Decorrelate injection streams across replications without consuming the
  // workload's own RNG: each fault forks one stream from the (scenario
  // seed, workload seed) mix.
  const uint64_t mixed = SplitMix64(spec.seed ^ SplitMix64(workload_seed));

  schedule.envelope_start_ = workload.duration;
  schedule.envelope_end_ = 0;
  for (size_t i = 0; i < spec.faults.size(); ++i) {
    const FaultSpec& fault = spec.faults[i];
    const SimTime start =
        std::max<SimTime>(0, SecondsToSim(fault.start_s));
    const SimTime end =
        std::min<SimTime>(workload.duration, SecondsToSim(fault.end_s));
    if (start >= workload.duration || end <= 0 || start >= end) {
      return CompileError(i, "window [" + std::to_string(fault.start_s) +
                                 ", " + std::to_string(fault.end_s) +
                                 ")s lies outside the run");
    }
    schedule.envelope_start_ = std::min(schedule.envelope_start_, start);
    schedule.envelope_end_ = std::max(schedule.envelope_end_, end);

    FaultEdge edge;
    edge.fault = static_cast<int32_t>(i);
    edge.kind = fault.kind;
    switch (fault.kind) {
      case FaultKind::kUpdateBurst:
      case FaultKind::kLoadStep:
      case FaultKind::kRetryStorm:
        edge.magnitude = fault.rate_hz;
        break;
      case FaultKind::kServiceSlowdown:
        edge.magnitude = fault.factor;
        break;
      case FaultKind::kFreshnessShift:
        edge.magnitude = fault.delta;
        break;
      case FaultKind::kUpdateOutage:
        break;
    }

    if (fault.kind == FaultKind::kUpdateOutage ||
        fault.kind == FaultKind::kUpdateBurst) {
      std::vector<ItemId> items;
      Status s = ResolveItems(fault, i, workload, has_source, &items);
      if (!s.ok()) return s;
      edge.item_begin = static_cast<int32_t>(schedule.items_.size());
      edge.item_count = static_cast<int32_t>(items.size());
      schedule.items_.insert(schedule.items_.end(), items.begin(),
                             items.end());
    }

    Rng rng(SplitMix64(mixed + static_cast<uint64_t>(i) + 1));
    if (fault.kind == FaultKind::kLoadStep ||
        fault.kind == FaultKind::kRetryStorm) {
      if (trace_size == 0) {
        return CompileError(i, std::string(FaultKindName(fault.kind)) +
                                   " needs a non-empty query trace");
      }
      const double mean_gap_s = 1.0 / fault.rate_hz;
      SimTime t = start;
      while (true) {
        t += std::max<SimDuration>(
            1, SecondsToSim(rng.Exponential(mean_gap_s)));
        if (t >= end) break;
        picks.push_back({rng.UniformInt(0, trace_size - 1),
                         schedule.injected_queries_.size(),
                         fault.kind == FaultKind::kRetryStorm});
        QueryRequest q;
        q.arrival = t;
        schedule.injected_queries_.push_back(std::move(q));
      }
    } else if (fault.kind == FaultKind::kUpdateBurst) {
      const SimDuration step =
          std::max<SimDuration>(1, SecondsToSim(1.0 / fault.rate_hz));
      for (int32_t k = 0; k < edge.item_count; ++k) {
        const ItemId item = schedule.items_[edge.item_begin + k];
        // Per-item phase so the forced deliveries of a many-item burst
        // don't all land on the same instants.
        SimTime t = start + rng.UniformInt(0, step - 1);
        while (t < end) {
          schedule.injected_updates_.push_back({t, item});
          t += step;
        }
      }
    }

    edge.start = true;
    edge.time = start;
    schedule.edges_.push_back(edge);
    edge.start = false;
    edge.time = end;
    schedule.edges_.push_back(edge);
  }

  if (!picks.empty()) {
    FillTemplates(workload, std::move(picks), &schedule.injected_queries_);
  }

  // Stops sort before starts at equal times so back-to-back windows of a
  // scalar kind restore-then-apply rather than the reverse.
  std::sort(schedule.edges_.begin(), schedule.edges_.end(),
            [](const FaultEdge& a, const FaultEdge& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.start != b.start) return !a.start;
              return a.fault < b.fault;
            });
  std::stable_sort(schedule.injected_queries_.begin(),
                   schedule.injected_queries_.end(),
                   [](const QueryRequest& a, const QueryRequest& b) {
                     return a.arrival < b.arrival;
                   });
  std::sort(schedule.injected_updates_.begin(),
            schedule.injected_updates_.end(),
            [](const InjectedUpdate& a, const InjectedUpdate& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.item < b.item;
            });
  return schedule;
}

}  // namespace unitdb
