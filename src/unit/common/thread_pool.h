#ifndef UNIT_COMMON_THREAD_POOL_H_
#define UNIT_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "unit/common/status.h"

namespace unitdb {

/// Fixed-size thread pool behind FanOut (below), which is how the library
/// runs independent experiment cells, replications and shards across cores.
/// Deliberately minimal — no work stealing, no priorities: tasks are
/// drained strictly FIFO from one queue, which keeps scheduling decisions
/// out of the determinism story (each task must be self-contained and seeded
/// deterministically; completion *order* may still vary, so FanOut collects
/// results by index, not by completion).
///
/// Exceptions thrown by a task are captured in the future returned by
/// `Submit` and rethrown on `.get()`; they never escape a worker thread.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Drains remaining tasks, then joins the workers (see Shutdown()).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` and returns a future for its result. Thread-safe.
  /// Throws std::runtime_error if the pool has been shut down.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // packaged_task is move-only; std::function needs copyable, so wrap it.
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) {
        throw std::runtime_error("ThreadPool::Submit after Shutdown");
      }
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Blocks until the queue is empty and no worker is mid-task. New tasks
  /// may be submitted afterwards; this is a fence, not a shutdown.
  void WaitIdle();

  /// Finishes every queued task, then stops and joins the workers.
  /// Idempotent: extra calls (and the destructor) are no-ops.
  void Shutdown();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;       // signals workers: task ready / shutdown
  std::condition_variable idle_cv_;  // signals WaitIdle: queue drained
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int active_ = 0;  // workers currently running a task
  bool shutdown_ = false;
};

/// Worker count for `jobs <= 0` ("use the machine"): hardware concurrency,
/// or 1 when the runtime cannot tell.
int ResolveJobs(int jobs);

/// Ordered fan-out, the one way this library runs independent work in
/// parallel: calls `fn(i)` for every i in [0, n) on min(ResolveJobs(jobs), n)
/// workers (inline on the calling thread when that is 1), waits for every
/// call, and returns the n values in index order, or the status of the
/// lowest failing index. `fn` returns StatusOr<T> and must be safe to call
/// concurrently. Every call runs even after one fails, so neither the result
/// nor the work done depends on the worker count or on completion order.
template <typename Fn>
auto FanOut(int n, int jobs, Fn&& fn) -> StatusOr<
    std::vector<typename std::invoke_result_t<Fn&, int>::value_type>> {
  using Result = std::invoke_result_t<Fn&, int>;
  std::vector<std::optional<Result>> results(
      static_cast<size_t>(std::max(n, 0)));
  const auto run = [&](int i) {
    results[static_cast<size_t>(i)].emplace(fn(i));
  };
  const int workers = std::min(ResolveJobs(jobs), n);
  if (workers <= 1) {
    for (int i = 0; i < n; ++i) run(i);
  } else {
    ThreadPool pool(workers);
    std::vector<std::future<void>> done;
    done.reserve(results.size());
    for (int i = 0; i < n; ++i) {
      done.push_back(pool.Submit([&run, i]() { run(i); }));
    }
    for (auto& d : done) d.get();
  }
  std::vector<typename Result::value_type> values;
  values.reserve(results.size());
  for (auto& r : results) {
    if (!r->ok()) return r->status();
    values.push_back(std::move(*r).value());
  }
  return values;
}

}  // namespace unitdb

#endif  // UNIT_COMMON_THREAD_POOL_H_
