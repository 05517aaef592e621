#include "unit/obs/timeseries.h"

#include <cstdio>
#include <fstream>
#include <type_traits>

namespace unitdb {

namespace {

std::string FmtG(double v) {
  char tmp[40];
  std::snprintf(tmp, sizeof(tmp), "%.17g", v);
  return tmp;
}

/// Calls `cell(column, text)` for every CSV column of `s`, in table order;
/// a struct field contributes one column per member.
template <typename F>
void ForEachCell(const WindowSample& s, F&& cell) {
  const auto emit = [&cell](const std::string& column, auto v) {
    cell(column, std::is_floating_point_v<decltype(v)> ? FmtG(v)
                                                        : std::to_string(v));
  };
  ForEachWindowSampleField([&]<typename Field>(Field field) {
    const auto& v = s.*Field::member;
    if constexpr (std::is_class_v<std::remove_cvref_t<decltype(v)>>) {
      for (const auto& m : FieldsOf(v)) {
        emit(std::string(field.column) + m.name, v.*m.member);
      }
    } else {
      emit(field.column, v);
    }
  });
}

}  // namespace

void TakeWindowDeltas(const RunMetrics& run, WindowSample* last,
                      WindowSample* sample) {
  ForEachWindowSampleField([&]<typename Field>(Field) {
    if constexpr (!std::is_null_pointer_v<decltype(Field::source)>) {
      sample->*Field::member = run.*Field::source - last->*Field::member;
      last->*Field::member = run.*Field::source;
    }
  });
}

TimeSeriesRecorder::TimeSeriesRecorder(const UsmWeights& weights)
    : weights_(weights) {}

void TimeSeriesRecorder::Record(WindowSample sample) {
  sample.usm = UsmDecompose(sample.window, weights_);
  samples_.push_back(sample);
}

const std::vector<std::string>& TimeSeriesRecorder::ColumnNames() {
  static const std::vector<std::string> kColumns = [] {
    std::vector<std::string> columns;
    ForEachCell(WindowSample{}, [&columns](const std::string& column,
                                           const std::string&) {
      columns.push_back(column);
    });
    return columns;
  }();
  return kColumns;
}

std::string TimeSeriesRecorder::ToCsv() const {
  std::string out;
  const auto& cols = ColumnNames();
  for (size_t i = 0; i < cols.size(); ++i) {
    if (i > 0) out += ',';
    out += cols[i];
  }
  out += '\n';
  for (const WindowSample& s : samples_) {
    bool first = true;
    ForEachCell(s, [&](const std::string&, const std::string& text) {
      if (!first) out += ',';
      first = false;
      out += text;
    });
    out += '\n';
  }
  return out;
}

Status TimeSeriesRecorder::WriteCsv(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f.is_open()) {
    return Status(StatusCode::kIoError, "cannot open " + path);
  }
  f << ToCsv();
  if (!f.good()) return Status(StatusCode::kIoError, "write failed " + path);
  return Status::Ok();
}

}  // namespace unitdb
