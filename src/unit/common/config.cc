#include "unit/common/config.h"

#include <charconv>
#include <sstream>
#include <system_error>

namespace unitdb {

namespace {

// Trims ASCII whitespace from both ends.
std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

Status ParseEntry(const std::string& token, Config& config) {
  std::string t = Trim(token);
  if (t.rfind("--", 0) == 0) t = t.substr(2);
  const size_t eq = t.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("expected key=value, got '" + token + "'");
  }
  const std::string key = Trim(t.substr(0, eq));
  // Set() overwrites, but a key appearing twice in one parsed source is a
  // typo (a scenario file silently dropping its first fault0.kind would be
  // miserable to debug), so the parsers reject it.
  if (config.Has(key)) {
    return Status::InvalidArgument("duplicate key '" + key + "'");
  }
  config.Set(key, Trim(t.substr(eq + 1)));
  return Status::Ok();
}

}  // namespace

StatusOr<Config> Config::ParseArgs(int argc, const char* const* argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    Status s = ParseEntry(argv[i], config);
    if (!s.ok()) return s;
  }
  return config;
}

StatusOr<Config> Config::ParseString(const std::string& text) {
  Config config;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    if (Trim(line).empty()) continue;
    Status s = ParseEntry(line, config);
    if (!s.ok()) return s;
  }
  return config;
}

void Config::Set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Config::GetString(const std::string& key,
                              const std::string& def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

template <typename T>
T Config::GetNumber(const std::string& key, T def, const char* what) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  T x{};
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (v.empty() || ec != std::errc() || end != v.data() + v.size()) {
    if (bad_number_.ok()) {
      const std::string why = ec == std::errc::result_out_of_range
                                  ? "out of range"
                                  : std::string("not ") + what;
      bad_number_ = Status::InvalidArgument(key + "=" + v + " is " + why);
    }
    return def;
  }
  return x;
}

int64_t Config::GetInt(const std::string& key, int64_t def) const {
  return GetNumber<int64_t>(key, def, "an integer");
}

double Config::GetDouble(const std::string& key, double def) const {
  return GetNumber<double>(key, def, "a number");
}

Status Config::CheckNumbers() const { return bad_number_; }

std::vector<std::string> Config::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(values_.size());
  for (const auto& [k, _] : values_) keys.push_back(k);
  return keys;
}

Status Config::ExpectKeys(const std::vector<std::string>& allowed) const {
  for (const auto& [key, _] : values_) {
    bool known = false;
    for (const std::string& a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (known) continue;
    std::string message = "unknown key '" + key + "' (accepted:";
    for (const std::string& a : allowed) message += " " + a;
    message += ")";
    return Status::InvalidArgument(message);
  }
  return Status::Ok();
}

}  // namespace unitdb
