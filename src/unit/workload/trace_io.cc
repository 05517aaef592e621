#include "unit/workload/trace_io.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "unit/common/csv.h"
#include "unit/db/database.h"
#include "unit/workload/query_source.h"

namespace unitdb {

namespace {

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

StatusOr<int64_t> ParseI64(const std::string& s) {
  char* end = nullptr;
  const int64_t v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad integer: '" + s + "'");
  }
  return v;
}

StatusOr<double> ParseF64(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad double: '" + s + "'");
  }
  return v;
}

std::string JoinItems(const std::vector<ItemId>& items) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ';';
    out += std::to_string(items[i]);
  }
  return out;
}

StatusOr<std::vector<ItemId>> SplitItems(const std::string& s) {
  std::vector<ItemId> items;
  std::istringstream in(s);
  std::string part;
  while (std::getline(in, part, ';')) {
    auto v = ParseI64(part);
    if (!v.ok()) return v.status();
    if (*v < std::numeric_limits<ItemId>::min() ||
        *v > std::numeric_limits<ItemId>::max()) {
      return Status::InvalidArgument("item " + part + " overflows an ItemId");
    }
    items.push_back(static_cast<ItemId>(*v));
  }
  if (items.empty()) return Status::InvalidArgument("empty item list");
  return items;
}

}  // namespace

std::string WorkloadToCsv(const Workload& w) {
  CsvWriter csv;
  csv.AddRow({"M", std::to_string(w.num_items), std::to_string(w.duration),
              w.query_trace_name, w.update_trace_name});
  QueryRequest q;
  auto cursor = w.NewQueryCursor();
  while (cursor->Next(&q)) {
    csv.AddRow({"Q", std::to_string(q.id), std::to_string(q.arrival),
                std::to_string(q.exec), std::to_string(q.relative_deadline),
                FormatDouble(q.freshness_req), JoinItems(q.items),
                std::to_string(q.preference_class)});
  }
  for (const auto& u : w.updates) {
    csv.AddRow({"U", std::to_string(u.item), std::to_string(u.ideal_period),
                std::to_string(u.update_exec), std::to_string(u.phase)});
  }
  return csv.ToString();
}

StatusOr<Workload> WorkloadFromCsv(const std::string& text) {
  auto rows = CsvReader::Parse(text);
  if (!rows.ok()) return rows.status();
  Workload w;
  bool saw_meta = false;
  for (const auto& row : *rows) {
    if (row.empty()) continue;
    const std::string& tag = row[0];
    if (tag == "M") {
      if (row.size() != 5) return Status::InvalidArgument("bad M row");
      auto items = ParseI64(row[1]);
      auto dur = ParseI64(row[2]);
      if (!items.ok()) return items.status();
      if (!dur.ok()) return dur.status();
      if (*items <= 0 || *items > std::numeric_limits<int>::max()) {
        return Status::InvalidArgument("M row: num_items " + row[1] +
                                       " is not a positive int");
      }
      w.num_items = static_cast<int>(*items);
      w.duration = *dur;
      w.query_trace_name = row[3];
      w.update_trace_name = row[4];
      saw_meta = true;
    } else if (tag == "Q") {
      if (row.size() != 7 && row.size() != 8) {
        return Status::InvalidArgument("bad Q row");
      }
      QueryRequest q;
      auto id = ParseI64(row[1]);
      auto arrival = ParseI64(row[2]);
      auto exec = ParseI64(row[3]);
      auto deadline = ParseI64(row[4]);
      auto fresh = ParseF64(row[5]);
      auto items = SplitItems(row[6]);
      for (const Status& s :
           {id.status(), arrival.status(), exec.status(), deadline.status(),
            fresh.status(), items.status()}) {
        if (!s.ok()) return s;
      }
      q.id = *id;
      q.arrival = *arrival;
      q.exec = *exec;
      q.relative_deadline = *deadline;
      q.freshness_req = *fresh;
      q.items = std::move(*items);
      if (row.size() == 8) {
        auto cls = ParseI64(row[7]);
        if (!cls.ok()) return cls.status();
        q.preference_class = static_cast<int>(*cls);
      }
      // The engine replays a trace in row order and needs non-decreasing
      // arrivals (workload/spec.h).
      if (!w.queries.empty() && q.arrival < w.queries.back().arrival) {
        return Status::InvalidArgument(
            "Q row " + std::to_string(w.queries.size()) + " (id " +
            std::to_string(q.id) + "): arrival " + std::to_string(q.arrival) +
            " precedes the previous row's " +
            std::to_string(w.queries.back().arrival));
      }
      w.queries.push_back(std::move(q));
    } else if (tag == "U") {
      if (row.size() != 5) return Status::InvalidArgument("bad U row");
      ItemUpdateSpec u;
      auto item = ParseI64(row[1]);
      auto period = ParseI64(row[2]);
      auto exec = ParseI64(row[3]);
      auto phase = ParseI64(row[4]);
      for (const Status& s : {item.status(), period.status(), exec.status(),
                              phase.status()}) {
        if (!s.ok()) return s;
      }
      u.item = static_cast<ItemId>(*item);
      u.ideal_period = *period;
      u.update_exec = *exec;
      u.phase = *phase;
      w.updates.push_back(u);
    } else {
      return Status::InvalidArgument("unknown row tag '" + tag + "'");
    }
  }
  if (!saw_meta) return Status::InvalidArgument("missing M (meta) row");
  for (size_t i = 0; i < w.queries.size(); ++i) {
    for (ItemId item : w.queries[i].items) {
      if (item < 0 || item >= w.num_items) {
        return Status::InvalidArgument(
            "Q row " + std::to_string(i) + " (id " +
            std::to_string(w.queries[i].id) + "): item " +
            std::to_string(item) + " outside [0, " +
            std::to_string(w.num_items) + ")");
      }
    }
  }
  // The U rows must be sources the engine's database accepts: the same
  // rules, applied by the same code.
  const Status sources = Database(w.num_items).ApplySpecs(w.updates);
  if (!sources.ok()) {
    return Status::InvalidArgument("U rows: " + sources.message());
  }
  return w;
}

Status SaveWorkload(const Workload& w, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << WorkloadToCsv(w);
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

StatusOr<Workload> LoadWorkload(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return WorkloadFromCsv(ss.str());
}

}  // namespace unitdb
