#include "unit/common/csv.h"

namespace unitdb {

namespace {

bool NeedsQuoting(const std::string& field) {
  return field.find_first_of(",\"\r\n") != std::string::npos;
}

std::string QuoteField(const std::string& field) {
  if (!NeedsQuoting(field)) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void CsvWriter::AddRow(const std::vector<std::string>& fields) {
  rows_.push_back(fields);
}

std::string CsvWriter::ToString() const {
  std::string out;
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      out += QuoteField(row[i]);
    }
    out += '\n';
  }
  return out;
}

StatusOr<std::vector<std::vector<std::string>>> CsvReader::Parse(
    const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  auto end_field = [&] {
    row.push_back(field);
    field.clear();
    field_started = false;
  };
  auto end_row = [&] {
    if (field_started || !field.empty() || !row.empty()) {
      end_field();
      rows.push_back(row);
      row.clear();
    }
  };

  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      if (!field.empty()) {
        return Status::InvalidArgument("quote in unquoted field at offset " +
                                       std::to_string(i));
      }
      in_quotes = true;
      field_started = true;
    } else if (c == ',') {
      end_field();
      field_started = true;  // a comma implies a following (possibly empty) field
    } else if (c == '\n') {
      end_row();
    } else if (c == '\r') {
      // Swallow; handled by the following '\n' (or end of input).
    } else {
      field += c;
      field_started = true;
    }
  }
  if (in_quotes) return Status::InvalidArgument("unterminated quoted field");
  end_row();
  return rows;
}

}  // namespace unitdb
