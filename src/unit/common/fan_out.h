#ifndef UNIT_COMMON_FAN_OUT_H_
#define UNIT_COMMON_FAN_OUT_H_

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "unit/common/status.h"

namespace unitdb {

/// Worker count for `jobs <= 0` ("use the machine"): hardware concurrency,
/// or 1 when the runtime cannot tell.
inline int ResolveJobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Ordered fan-out, the one way this library runs independent work in
/// parallel: calls `fn(i)` for every i in [0, n) on min(ResolveJobs(jobs), n)
/// workers, waits for every call, and returns the n values in index order,
/// or the status of the lowest failing index. `fn` returns StatusOr<T>, must
/// be safe to call concurrently and must not throw. Every call runs even
/// after one fails, so neither the result nor the work done depends on the
/// worker count or on completion order.
///
/// The calling thread is one of the workers, beside min(...) - 1 helper
/// threads; each worker claims the next unclaimed index until none is left
/// and writes the result to that index's own slot. At one worker every call
/// runs inline on the caller, in index order. Joining the helpers publishes
/// their slots to the caller.
template <typename Fn>
auto FanOut(int n, int jobs, Fn&& fn) -> StatusOr<
    std::vector<typename std::invoke_result_t<Fn&, int>::value_type>> {
  using Result = std::invoke_result_t<Fn&, int>;
  std::vector<std::optional<Result>> results(
      static_cast<size_t>(std::max(n, 0)));
  std::atomic<int> next{0};
  const auto work = [&] {
    for (int i = next++; i < n; i = next++) {
      results[static_cast<size_t>(i)].emplace(fn(i));
    }
  };
  {
    const int workers = std::min(ResolveJobs(jobs), n);
    std::vector<std::jthread> helpers;
    for (int h = 1; h < workers; ++h) helpers.emplace_back(work);
    work();
  }  // ~jthread joins every helper
  std::vector<typename Result::value_type> values;
  values.reserve(results.size());
  for (auto& r : results) {
    if (!r->ok()) return r->status();
    values.push_back(std::move(*r).value());
  }
  return values;
}

}  // namespace unitdb

#endif  // UNIT_COMMON_FAN_OUT_H_
