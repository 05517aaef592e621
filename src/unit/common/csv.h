#ifndef UNIT_COMMON_CSV_H_
#define UNIT_COMMON_CSV_H_

#include <string>
#include <vector>

#include "unit/common/status.h"

namespace unitdb {

/// Minimal CSV writer for traces and experiment output. Fields containing
/// commas, quotes, or newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Appends one row.
  void AddRow(const std::vector<std::string>& fields);

  /// Serializes all rows.
  std::string ToString() const;

  size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::vector<std::string>> rows_;
};

/// Minimal CSV reader matching CsvWriter's output (RFC 4180 quoting).
class CsvReader {
 public:
  /// Parses a whole document. Returns rows of fields.
  static StatusOr<std::vector<std::vector<std::string>>> Parse(
      const std::string& text);
};

}  // namespace unitdb

#endif  // UNIT_COMMON_CSV_H_
