#ifndef UNIT_COMMON_CONFIG_H_
#define UNIT_COMMON_CONFIG_H_

#include <map>
#include <string>
#include <vector>

#include "unit/common/status.h"

namespace unitdb {

/// Flat key=value configuration used by the example binaries and benches so
/// experiments can be tweaked from the command line without recompiling.
///
/// Accepted syntax per entry: `key=value`. `ParseArgs` also accepts
/// `--key=value`. Lookup is typed with defaults; callers validate the key
/// set with ExpectKeys so a typo fails loudly instead of silently running
/// with the default value.
class Config {
 public:
  Config() = default;

  /// Parses argv-style arguments (skipping argv[0]). Non `key=value` tokens
  /// produce an error.
  static StatusOr<Config> ParseArgs(int argc, const char* const* argv);

  /// Parses a multi-line "key=value\n" blob; '#' starts a comment.
  static StatusOr<Config> ParseString(const std::string& text);

  void Set(const std::string& key, const std::string& value);
  bool Has(const std::string& key) const;

  std::string GetString(const std::string& key,
                        const std::string& def = "") const;
  /// GetInt and GetDouble accept only a whole, in-range number in
  /// std::from_chars syntax. Anything else returns `def` and is reported by
  /// CheckNumbers.
  int64_t GetInt(const std::string& key, int64_t def) const;
  double GetDouble(const std::string& key, double def) const;

  /// All keys, sorted, for help/debug output.
  std::vector<std::string> Keys() const;

  /// Fails with InvalidArgument if any parsed key is not in `allowed`,
  /// naming the offending key and the accepted set. Every binary that
  /// parses a Config should call this right after parsing — a mistyped
  /// key silently falling back to its default is the worst failure mode
  /// a benchmark CLI can have.
  Status ExpectKeys(const std::vector<std::string>& allowed) const;

  /// Fails with InvalidArgument, naming the key and the value, if a GetInt
  /// or GetDouble call so far met a value that is not a number. Call it
  /// once after the last numeric getter, before using the values.
  Status CheckNumbers() const;

 private:
  template <typename T>
  T GetNumber(const std::string& key, T def, const char* what) const;

  std::map<std::string, std::string> values_;
  mutable Status bad_number_;  ///< first malformed numeric value read
};

}  // namespace unitdb

#endif  // UNIT_COMMON_CONFIG_H_
