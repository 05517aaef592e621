#include "unit/core/admission.h"

#include <algorithm>
#include <cassert>

#include "unit/common/rng.h"
#include "unit/sched/engine_context.h"

namespace unitdb {

// --- AdmissionIndex -------------------------------------------------------

void AdmissionIndex::Init(const Workload& /*workload*/) {
  root_ = kNil;
  free_ = kNil;
  nodes_.clear();
}

void AdmissionIndex::Pull(int32_t x) {
  Node& n = nodes_[x];
  int64_t through = n.own_work;  // work in EDF order up to and including n
  n.count = 1;
  if (n.left != kNil) {
    const Node& l = nodes_[n.left];
    through += l.work;
    n.count += l.count;
    n.min_m = std::min(l.min_m, n.deadline - through);
    n.max_m = std::max(l.max_m, n.deadline - through);
  } else {
    n.min_m = n.max_m = n.deadline - through;
  }
  if (n.right != kNil) {
    // The right subtree's lags shift down by everything before it.
    const Node& r = nodes_[n.right];
    n.count += r.count;
    n.min_m = std::min(n.min_m, r.min_m - through);
    n.max_m = std::max(n.max_m, r.max_m - through);
    through += r.work;
  }
  n.work = through;
}

void AdmissionIndex::Split(int32_t t, SimTime deadline, TxnId id,
                           int32_t* before, int32_t* after) {
  if (t == kNil) {
    *before = *after = kNil;
    return;
  }
  Node& n = nodes_[t];
  if (KeyBefore(deadline, id, n)) {
    Split(n.left, deadline, id, before, &n.left);
    *after = t;
  } else {
    Split(n.right, deadline, id, &n.right, after);
    *before = t;
  }
  Pull(t);
}

int32_t AdmissionIndex::InsertAt(int32_t t, int32_t x) {
  if (t == kNil) return x;
  Node& n = nodes_[t];
  Node& node = nodes_[x];
  if (node.priority > n.priority) {
    // x becomes this subtree's root: split only the subtree it displaces.
    Split(t, node.deadline, node.id, &node.left, &node.right);
    Pull(x);
    return x;
  }
  if (KeyBefore(node.deadline, node.id, n)) {
    n.left = InsertAt(n.left, x);
  } else {
    n.right = InsertAt(n.right, x);
  }
  Pull(t);
  return t;
}

int32_t AdmissionIndex::Join(int32_t a, int32_t b) {
  if (a == kNil) return b;
  if (b == kNil) return a;
  if (nodes_[a].priority > nodes_[b].priority) {
    nodes_[a].right = Join(nodes_[a].right, b);
    Pull(a);
    return a;
  }
  nodes_[b].left = Join(a, nodes_[b].left);
  Pull(b);
  return b;
}

int32_t AdmissionIndex::EraseAt(int32_t t, SimTime deadline, TxnId id) {
  assert(t != kNil && "erasing a query the index does not hold");
  Node& n = nodes_[t];
  if (n.deadline == deadline && n.id == id) {
    const int32_t joined = Join(n.left, n.right);
    n.left = free_;
    free_ = t;
    return joined;
  }
  if (KeyBefore(deadline, id, n)) {
    n.left = EraseAt(n.left, deadline, id);
  } else {
    n.right = EraseAt(n.right, deadline, id);
  }
  Pull(t);
  return t;
}

void AdmissionIndex::OnInsert(const Transaction& query) {
  assert(query.is_query());
  int32_t x = free_;
  if (x != kNil) {
    free_ = nodes_[x].left;
  } else {
    x = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& n = nodes_[x];
  n.deadline = query.absolute_deadline();
  n.id = query.id();
  n.priority = static_cast<uint32_t>(
      SplitMix64(static_cast<uint64_t>(query.id())) >> 32);
  n.own_work = query.remaining();
  n.left = n.right = kNil;
  Pull(x);
  root_ = InsertAt(root_, x);
}

void AdmissionIndex::OnRemove(const Transaction& query) {
  assert(query.is_query());
  root_ = EraseAt(root_, query.absolute_deadline(), query.id());
}

SimDuration AdmissionIndex::EarlierWork(SimTime deadline) const {
  SimDuration work = 0;
  for (int32_t t = root_; t != kNil;) {
    const Node& n = nodes_[t];
    if (n.deadline <= deadline) {
      work += n.own_work + (n.left != kNil ? nodes_[n.left].work : 0);
      t = n.right;
    } else {
      t = n.left;
    }
  }
  return work;
}

int64_t AdmissionIndex::LaterCount(SimTime deadline) const {
  int64_t count = 0;
  for (int32_t t = root_; t != kNil;) {
    const Node& n = nodes_[t];
    if (n.deadline > deadline) {
      count += 1 + (n.right != kNil ? nodes_[n.right].count : 0);
      t = n.left;
    } else {
      t = n.right;
    }
  }
  return count;
}

int64_t AdmissionIndex::Endangered(int32_t t, SimTime d, int64_t lo,
                                   int64_t hi, int64_t& acc) const {
  if (t == kNil) return 0;
  const Node& n = nodes_[t];
  if (n.deadline <= d) return Endangered(n.right, d, lo, hi, acc);
  if (d == kWholeSubtree) {
    // The subtree's lags, shifted by the work accumulated before it, span
    // [min_m - acc, max_m - acc].
    const int64_t mn = n.min_m - acc;
    const int64_t mx = n.max_m - acc;
    if (mx < lo || mn >= hi) {
      acc += n.work;
      return 0;
    }
    if (lo <= mn && mx < hi) {
      acc += n.work;
      return n.count;
    }
  }
  // In EDF order: the left subtree, which may straddle d, then n, then the
  // right subtree, which lies wholly past d.
  int64_t c = Endangered(n.left, d, lo, hi, acc);
  acc += n.own_work;
  const int64_t m = n.deadline - acc;
  if (lo <= m && m < hi) ++c;
  return c + Endangered(n.right, kWholeSubtree, lo, hi, acc);
}

int64_t AdmissionIndex::CountEndangered(SimTime deadline, int64_t lo,
                                        int64_t hi) const {
  int64_t acc = 0;
  return Endangered(root_, deadline, lo, hi, acc);
}

// --- AdmissionController --------------------------------------------------

AdmissionController::AdmissionController(const AdmissionParams& params,
                                         const UsmWeights& weights)
    : params_(params), weights_(weights), c_flex_(params.initial_c_flex) {}

bool AdmissionController::Admit(const EngineContext& engine,
                                const Transaction& candidate) {
  return Admit(engine, candidate, weights_);
}

bool AdmissionController::Admit(const EngineContext& engine,
                                const Transaction& candidate,
                                const UsmWeights& weights) {
  // EST: the running transaction, every queued update, and the queued
  // queries due no later than the candidate. All sums are integer SimTime.
  const SimTime deadline = candidate.absolute_deadline();
  const SimDuration est = engine.RunningRemaining() +
                          engine.QueuedUpdateWork() +
                          engine.EarlierQueryWork(deadline);
  const bool naive = weights.AllZeroPenalties();

  // 1. Transaction deadline check: C_flex * EST + qe < qt. Rejecting an
  // unpromising query only raises user satisfaction when a rejection costs
  // no more than the deadline miss it prevents; with C_r > C_fm the
  // USM-rational move is to admit and let the firm deadline decide (the
  // system USM check still protects the other transactions).
  if (naive || !(weights.c_r > weights.c_fm)) {
    const double lhs = c_flex_ * static_cast<double>(est) +
                       static_cast<double>(candidate.estimate());
    const double qt = static_cast<double>(deadline - engine.now());
    if (!(lhs < qt)) {
      ++rejected_by_deadline_;
      last_reject_reason_ = "deadline";
      return false;
    }
  }

  // 2. System USM check: which later-deadline queries would newly miss if
  // the candidate's demand were slotted into the EDF schedule ahead of them?
  if (params_.usm_check_enabled && engine.LaterQueryCount(deadline) > 0) {
    const double dmf_cost =
        naive ? params_.zero_weight_unit_cost : weights.c_fm;
    const double rejection_cost =
        naive ? params_.zero_weight_unit_cost : weights.c_r;
    if (dmf_cost > 0.0) {
      const int64_t endangered = engine.EndangeredQueryCount(
          deadline, engine.now() + est, candidate.estimate());
      // Summed one endangered query at a time, like the paper's
      // per-transaction cost sum: a multiply could round differently and
      // move pinned results.
      double endangered_cost = 0.0;
      for (int64_t i = 0; i < endangered; ++i) endangered_cost += dmf_cost;
      if (endangered_cost > rejection_cost) {
        ++rejected_by_usm_;
        last_reject_reason_ = "usm";
        return false;
      }
    }
  }

  ++admitted_;
  last_reject_reason_ = nullptr;
  return true;
}

void AdmissionController::Tighten() {
  c_flex_ = std::min(params_.max_c_flex, c_flex_ * (1.0 + params_.adjust_step));
}

void AdmissionController::Loosen() {
  c_flex_ = std::max(params_.min_c_flex, c_flex_ * (1.0 - params_.adjust_step));
}

}  // namespace unitdb
