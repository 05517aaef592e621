#include "unit/obs/counters.h"

namespace unitdb {

int64_t& CounterRegistry::Counter(const std::string& name) {
  return counters_.try_emplace(name, 0).first->second;
}

int64_t CounterRegistry::CounterValue(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::vector<std::pair<std::string, int64_t>> CounterRegistry::CounterSnapshot()
    const {
  return {counters_.begin(), counters_.end()};
}

}  // namespace unitdb
