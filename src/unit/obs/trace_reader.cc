#include "unit/obs/trace_reader.h"

#include <cstdlib>
#include <fstream>
#include <type_traits>

namespace unitdb {

namespace {

/// Minimal cursor over one flat JSON object: {"key":value,...} with string
/// or numeric values, no nesting, no escapes (the writer never emits any).
class LineCursor {
 public:
  explicit LineCursor(const std::string& line) : s_(line.c_str()) {}

  Status Fail(const std::string& what) const {
    return Status(StatusCode::kInvalidArgument,
                  what + " at offset " + std::to_string(pos_));
  }

  bool Consume(char c) {
    if (s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  char Peek() const { return s_[pos_]; }

  /// Reads a "quoted" string into `out` (bounded by `cap`, truncating).
  Status QuotedString(char* out, size_t cap) {
    if (!Consume('"')) return Fail("expected '\"'");
    size_t n = 0;
    while (s_[pos_] != '"') {
      if (s_[pos_] == '\0') return Fail("unterminated string");
      if (n + 1 < cap) out[n++] = s_[pos_];
      ++pos_;
    }
    ++pos_;  // closing quote
    out[n] = '\0';
    return Status::Ok();
  }

  /// Reads a JSON number as both int64 and double; `is_int` reports whether
  /// the text was a pure integer (no '.', 'e', "nan", "inf").
  Status Number(int64_t* as_int, double* as_double, bool* is_int) {
    const char* start = s_ + pos_;
    char* end = nullptr;
    *as_double = std::strtod(start, &end);
    if (end == start) return Fail("expected number");
    *is_int = true;
    for (const char* p = start; p != end; ++p) {
      if (*p == '.' || *p == 'e' || *p == 'E' || *p == 'n' || *p == 'i') {
        *is_int = false;
        break;
      }
    }
    if (*is_int) *as_int = std::strtoll(start, nullptr, 10);
    pos_ += static_cast<size_t>(end - start);
    return Status::Ok();
  }

 private:
  const char* s_;
  size_t pos_ = 0;
};

/// Reads one value of encoding `kEncoding` into member `v`.
template <typename T, TraceEncoding kEncoding>
Status ReadValue(LineCursor& cur, T& v,
                 std::integral_constant<TraceEncoding, kEncoding>) {
  if constexpr (kEncoding == TraceEncoding::kString) {
    return cur.QuotedString(v, sizeof(v));
  } else if constexpr (kEncoding == TraceEncoding::kType) {
    char name[32];
    if (Status st = cur.QuotedString(name, sizeof(name)); !st.ok()) return st;
    if (!TraceEventTypeFromName(name, &v)) {
      return Status(StatusCode::kInvalidArgument,
                    std::string("unknown event type \"") + name + "\"");
    }
    return Status::Ok();
  } else {
    int64_t iv = 0;
    double dv = 0.0;
    bool is_int = false;
    if (Status st = cur.Number(&iv, &dv, &is_int); !st.ok()) return st;
    if constexpr (kEncoding == TraceEncoding::kDouble) {
      v = dv;
    } else if constexpr (kEncoding == TraceEncoding::kWhole) {
      v = static_cast<double>(iv);
    } else if constexpr (kEncoding == TraceEncoding::kFlag) {
      v = iv != 0;
    } else {
      v = static_cast<T>(iv);
    }
    return Status::Ok();
  }
}

}  // namespace

StatusOr<TraceEvent> ParseTraceLine(const std::string& line) {
  LineCursor cur(line);
  if (!cur.Consume('{')) return cur.Fail("expected '{'");
  TraceEvent e;
  bool saw_type = false;
  bool first = true;
  while (!cur.Consume('}')) {
    if (!first && !cur.Consume(',')) return cur.Fail("expected ','");
    first = false;
    char key[32];
    Status st = cur.QuotedString(key, sizeof(key));
    if (!st.ok()) return st;
    if (!cur.Consume(':')) return cur.Fail("expected ':'");
    TraceKey k{};
    if (!TraceKeyFromName(key, &k)) {
      return Status(StatusCode::kInvalidArgument,
                    std::string("unknown trace key \"") + key + "\"");
    }
    VisitTraceKey(k, e, [&](auto& v, auto encoding) {
      st = ReadValue(cur, v, encoding);
    });
    if (!st.ok()) return st;
    saw_type = saw_type || k == TraceKey::kEvent;
  }
  if (cur.Peek() != '\0') return cur.Fail("trailing characters");
  if (!saw_type) {
    return Status(StatusCode::kInvalidArgument,
                  std::string("missing \"") + TraceKeyName(TraceKey::kEvent) +
                      "\" field");
  }
  return e;
}

StatusOr<std::vector<TraceEvent>> ReadTrace(std::istream& is) {
  std::vector<TraceEvent> events;
  std::string line;
  int64_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    StatusOr<TraceEvent> e = ParseTraceLine(line);
    if (!e.ok()) {
      return Status(e.status().code(), "line " + std::to_string(lineno) +
                                           ": " + e.status().message());
    }
    events.push_back(*e);
  }
  return events;
}

StatusOr<std::vector<TraceEvent>> ReadTraceFile(const std::string& path) {
  std::ifstream f(path);
  if (!f.is_open()) {
    return Status(StatusCode::kIoError, "cannot open trace file " + path);
  }
  return ReadTrace(f);
}

}  // namespace unitdb
