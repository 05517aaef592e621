#ifndef UNIT_SESSION_SESSION_H_
#define UNIT_SESSION_SESSION_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "unit/common/rng.h"
#include "unit/common/types.h"
#include "unit/txn/outcome.h"
#include "unit/workload/spec.h"

namespace unitdb {

/// Closed-loop client-session layer (paper Section 2: UNIT is *user*-centric;
/// real users react to rejections and deadline misses instead of
/// fire-and-forgetting each query). A pool of N sessions sits between the
/// workload trace and the engine: every trace query belongs to a home
/// session, and when its outcome is a rejection or a deadline miss the
/// session retries it with capped exponential backoff plus deterministic
/// jitter, until it either commits, exhausts `max_retries`, or exhausts the
/// session's patience budget and abandons.
///
/// `sessions == 0` (the default) disables the layer entirely and is a strict
/// behavioral no-op: the engine takes zero divergent branches and produces
/// bit-identical RunMetrics to a build without the layer.
struct SessionParams {
  /// Number of user sessions; 0 disables the closed loop.
  int sessions = 0;
  /// Retries per request before the session abandons it.
  int max_retries = 3;
  /// Think time added to every retry delay (the user re-reading the page
  /// before resubmitting).
  SimDuration think_time = MillisToSim(5.0);
  /// First-retry backoff; doubles per attempt up to `backoff_cap`.
  SimDuration backoff_base = MillisToSim(2.0);
  SimDuration backoff_cap = SecondsToSim(0.25);
  /// Jitter amplitude as a fraction of the current backoff, clamped to
  /// [0, 1]. The jitter draw itself is a pure hash (below), not a shared
  /// RNG stream, so shards and engines agree without coordination.
  double jitter = 0.5;
  /// Per-session retry-delay budget: every retry deducts its delay, and a
  /// retry that does not fit the remaining budget abandons instead.
  /// <= 0 means unlimited patience.
  SimDuration patience = 0;
  /// Session-layer seed; feeds the home-session hash and the jitter hash.
  uint64_t seed = 0x5E55101DULL;
  /// Test-only defect hook for the differential oracle's kDropRetry
  /// perturbation: the N-th retry decision (1-based, counted across the
  /// whole run) is silently dropped — no resubmit, no abandon. 0 = off.
  int64_t drop_retry_at = 0;
};

/// Home session of a request: a pure SplitMix64 hash of (seed, trace_id).
/// Router-consistent by construction — every shard (and the naive reference
/// engine) maps a parent's sub-queries to the same session with no shared
/// state, which is what keeps sharded runs bit-identical for any jobs count.
inline int SessionOf(uint64_t seed, TxnId trace_id, int sessions) {
  const uint64_t h =
      SplitMix64(seed ^ SplitMix64(static_cast<uint64_t>(trace_id)));
  return static_cast<int>(h % static_cast<uint64_t>(sessions));
}

/// Jitter fraction in [0, 1) for one retry decision. A pure hash over
/// (seed, session, trace_id, attempt): no mutable generator state, so the
/// draw is independent of resolution interleaving across shards and of the
/// engine implementation.
inline double SessionJitterFraction(uint64_t seed, int session, TxnId trace_id,
                                    int attempt) {
  uint64_t h = SplitMix64(seed + 0x5E55'0000ULL);
  h = SplitMix64(h ^ static_cast<uint64_t>(session));
  h = SplitMix64(h ^ static_cast<uint64_t>(trace_id));
  h = SplitMix64(h ^ static_cast<uint64_t>(attempt));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Delay before resubmitting a request whose `retries_done` prior retries
/// have already been spent: think time + capped exponential backoff +
/// jittered slack, clamped so per-attempt delays are non-decreasing
/// (trace_check invariant 7) and strictly positive.
inline SimDuration RetryDelay(const SessionParams& p, int session,
                              TxnId trace_id, int retries_done,
                              SimDuration prev_delay) {
  SimDuration backoff = std::max<SimDuration>(1, p.backoff_base);
  const SimDuration cap = std::max<SimDuration>(backoff, p.backoff_cap);
  for (int i = 0; i < retries_done && backoff < cap; ++i) backoff *= 2;
  backoff = std::min(backoff, cap);
  const double amp = std::clamp(p.jitter, 0.0, 1.0);
  const double jfrac =
      SessionJitterFraction(p.seed, session, trace_id, retries_done + 1);
  SimDuration delay =
      p.think_time + backoff +
      static_cast<SimDuration>(jfrac * amp * static_cast<double>(backoff));
  delay = std::max(delay, prev_delay);
  return std::max<SimDuration>(delay, 1);
}

/// What the pool decided about one resolved attempt.
struct SessionDecision {
  enum Kind {
    kNone,     ///< not session-managed (or dropped by the defect hook)
    kRetry,    ///< resubmit after `delay`
    kAbandon,  ///< give up: retries or patience exhausted
    kDone,     ///< request committed (success or stale-but-served)
  };
  Kind kind = kNone;
  int session = -1;
  int attempt = 0;       ///< attempt number that just resolved (first = 1)
  SimDuration delay = 0; ///< kRetry only
};

/// The session state machines, one per user session, plus the per-request
/// retry chains. Purely deterministic: all randomness is the pure jitter
/// hash above. One pool per engine (per shard); the hash map only ever
/// holds in-flight requests, so memory stays bounded by concurrency, not by
/// trace length. The naive reference engine does NOT use this class — it
/// mirrors the same arithmetic with one-at-a-time linear scans
/// (model/reference_engine.cc), which is what lets the differential oracle
/// cover the session loop itself.
class SessionPool {
 public:
  SessionPool() = default;
  explicit SessionPool(const SessionParams& params) : params_(params) {
    if (params_.sessions > 0) {
      patience_.assign(static_cast<size_t>(params_.sessions),
                       params_.patience);
    }
  }

  bool enabled() const { return params_.sessions > 0; }

  /// Fault-injected queries (trace_id == kInvalidTxn) have no user behind
  /// them and are never retried.
  bool Eligible(TxnId trace_id) const {
    return enabled() && trace_id != kInvalidTxn;
  }

  /// Registers the first submission of a trace request.
  void OnSubmit(TxnId trace_id, const QueryRequest& original) {
    Chain c;
    c.request = original;
    chains_.emplace(trace_id, std::move(c));
  }

  /// Applies one resolved attempt to the owning session's state machine.
  /// On kRetry the chain advances (retries + 1, delay remembered for the
  /// monotonicity clamp); on kAbandon / kDone the chain is dropped.
  SessionDecision OnOutcome(TxnId trace_id, Outcome outcome) {
    SessionDecision d;
    auto it = chains_.find(trace_id);
    if (it == chains_.end()) return d;
    Chain& c = it->second;
    d.session = SessionOf(params_.seed, trace_id, params_.sessions);
    d.attempt = c.retries + 1;
    if (outcome == Outcome::kSuccess || outcome == Outcome::kDataStale) {
      d.kind = SessionDecision::kDone;
      chains_.erase(it);
      return d;
    }
    if (c.retries >= params_.max_retries) {
      d.kind = SessionDecision::kAbandon;
      chains_.erase(it);
      return d;
    }
    const SimDuration delay =
        RetryDelay(params_, d.session, trace_id, c.retries, c.prev_delay);
    if (params_.patience > 0) {
      SimDuration& budget = patience_[static_cast<size_t>(d.session)];
      if (budget < delay) {
        d.kind = SessionDecision::kAbandon;
        chains_.erase(it);
        return d;
      }
      budget -= delay;
    }
    if (params_.drop_retry_at > 0 &&
        ++retry_decisions_ == params_.drop_retry_at) {
      chains_.erase(it);  // the injected defect: decision silently dropped
      return d;
    }
    c.retries += 1;
    c.prev_delay = delay;
    d.kind = SessionDecision::kRetry;
    d.delay = delay;
    return d;
  }

  /// Original request of an in-flight chain (null once resolved/abandoned).
  const QueryRequest* Request(TxnId trace_id) const {
    auto it = chains_.find(trace_id);
    return it == chains_.end() ? nullptr : &it->second.request;
  }

 private:
  struct Chain {
    QueryRequest request;
    int retries = 0;
    SimDuration prev_delay = 0;
  };

  SessionParams params_;
  std::unordered_map<TxnId, Chain> chains_;
  std::vector<SimDuration> patience_;
  int64_t retry_decisions_ = 0;
};

}  // namespace unitdb

#endif  // UNIT_SESSION_SESSION_H_
