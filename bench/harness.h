// The one way a bench binary parses its arguments, fails, times repeated
// runs and writes its JSON summary. A bench is `Status Run(bench::Args&)`
// and `main` returns bench::Main(argc, argv, {accepted keys}, Run): every
// failure (an unknown key, a malformed or out-of-range value, a failed run)
// comes back as a Status, which Main prints to stderr before exiting 1.

#ifndef UNIT_BENCH_HARNESS_H_
#define UNIT_BENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "unit/common/config.h"
#include "unit/common/status.h"

namespace unitdb::bench {

/// A bench's key=value arguments with typed getters. Read every value, then
/// call Check() once before using them.
class Args {
 public:
  Args(Config config, std::string line)
      : config_(std::move(config)), line_(std::move(line)) {}

  bool Has(const std::string& key) const { return config_.Has(key); }
  std::string String(const std::string& key, const std::string& def) const {
    return config_.GetString(key, def);
  }
  double Double(const std::string& key, double def) const {
    return config_.GetDouble(key, def);
  }
  /// An integer that must be at least `min`.
  int64_t Int(const std::string& key, int64_t def,
              int64_t min = std::numeric_limits<int64_t>::min()) {
    return AtLeast(key, config_.GetInt(key, def), min);
  }
  /// The first malformed or out-of-range value a getter read.
  Status Check() const {
    Status s = config_.CheckNumbers();
    return s.ok() ? error_ : s;
  }
  /// The arguments as given, space-separated.
  const std::string& line() const { return line_; }

 private:
  int64_t AtLeast(const std::string& key, int64_t value, int64_t min) {
    if (value < min && error_.ok()) {
      error_ = Status::InvalidArgument(key + "=" + std::to_string(value) +
                                       " is below " + std::to_string(min));
    }
    return value;
  }

  Config config_;
  std::string line_;
  Status error_;
};

/// Parses argv against `keys`, runs `run`, and turns a failed Status into its
/// message on stderr and exit code 1.
inline int Main(int argc, char** argv, const std::vector<std::string>& keys,
                Status (*run)(Args&)) {
  Status s = [&]() -> Status {
    auto config = Config::ParseArgs(argc, argv);
    if (!config.ok()) return config.status();
    if (Status k = config->ExpectKeys(keys); !k.ok()) return k;
    std::string line;
    for (int i = 1; i < argc; ++i) {
      if (i > 1) line += ' ';
      line += argv[i];
    }
    Args args(std::move(*config), std::move(line));
    return run(args);
  }();
  if (s.ok()) return 0;
  std::cerr << s.ToString() << "\n";
  return 1;
}

/// The last of `reps` runs and the wall-clock time of the fastest one (the
/// usual min-of-N noise filter; the runs are deterministic).
template <typename T>
struct Timed {
  T value;
  double wall_s = 0.0;
};

/// Calls `run`, which returns a StatusOr, `reps` times.
template <typename Fn>
auto FastestOf(int reps, Fn&& run)
    -> StatusOr<Timed<typename std::invoke_result_t<Fn&>::value_type>> {
  using T = typename std::invoke_result_t<Fn&>::value_type;
  if (reps < 1) return Status::InvalidArgument("reps must be at least 1");
  std::optional<T> last;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    auto r = run();
    const auto t1 = std::chrono::steady_clock::now();
    if (!r.ok()) return r.status();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    last.emplace(std::move(*r));
  }
  return Timed<T>{std::move(*last), best};
}

/// `count` per second of `wall_s`; 0 for a zero time.
inline double PerSecond(int64_t count, double wall_s) {
  return wall_s > 0.0 ? static_cast<double>(count) / wall_s : 0.0;
}

/// One flat JSON object, fields in insertion order. Strings are quoted;
/// numbers and bools print as iostreams print them by default (six
/// significant digits), the precision every committed baseline records.
class JsonObject {
 public:
  template <typename T>
  JsonObject& Add(const std::string& key, const T& value) {
    std::ostringstream os;
    if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      os << '"';
      for (char c : std::string_view(value)) {
        if (c == '"' || c == '\\') os << '\\';
        os << c;
      }
      os << '"';
    } else {
      os << std::boolalpha << value;
    }
    fields_.emplace_back("\"" + key + "\": " + os.str());
    return *this;
  }

  /// The fields, each rendered as `"key": value`.
  const std::vector<std::string>& fields() const { return fields_; }

  /// {"key": value, ...} on one line.
  std::string str() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += (i > 0 ? ", " : "") + fields_[i];
    }
    return out + "}";
  }

 private:
  std::vector<std::string> fields_;
};

/// How this binary was built and run: optimization and asserts (from
/// __OPTIMIZE__ and NDEBUG), the compiler, the hardware threads and the
/// argument line.
inline JsonObject Provenance(const Args& args) {
#ifdef __OPTIMIZE__
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
#ifdef NDEBUG
  constexpr bool kAsserts = false;
#else
  constexpr bool kAsserts = true;
#endif
  return JsonObject()
      .Add("optimized", kOptimized)
      .Add("asserts", kAsserts)
      .Add("compiler", __VERSION__)
      .Add("hardware_threads", std::thread::hardware_concurrency())
      .Add("args", args.line());
}

/// Writes a bench's summary to `path`: "bench", then `header`'s fields,
/// "provenance", and one line per cell; then prints "wrote <path>".
inline Status WriteJson(const std::string& path, const std::string& bench,
                        const JsonObject& header,
                        const std::vector<JsonObject>& cells,
                        const Args& args) {
  std::ofstream f(path);
  f << "{\n  \"bench\": \"" << bench << "\",\n";
  for (const std::string& field : header.fields()) f << "  " << field << ",\n";
  f << "  \"provenance\": " << Provenance(args).str() << ",\n";
  f << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    f << "    " << cells[i].str() << (i + 1 < cells.size() ? "," : "")
      << "\n";
  }
  f << "  ]\n}\n";
  if (!f.flush()) return Status::IoError("cannot write " + path);
  std::cout << "wrote " << path << "\n";
  return Status::Ok();
}

}  // namespace unitdb::bench

#endif  // UNIT_BENCH_HARNESS_H_
