#include "unit/core/admission.h"

#include <algorithm>
#include <cassert>

#include "unit/common/rng.h"
#include "unit/sched/engine_context.h"

namespace unitdb {

int64_t EndangeredCap(double dmf_cost, double rejection_cost,
                      int64_t bound) {
  if (!(dmf_cost > 0.0)) return 0;
  // Summed one query at a time, like the per-transaction cost sum: a
  // multiply could round differently and move pinned results.
  double cost = 0.0;
  for (int64_t k = 1; k <= bound; ++k) {
    cost += dmf_cost;
    if (cost > rejection_cost) return k;
  }
  return 0;
}

// --- AdmissionIndex -------------------------------------------------------

void AdmissionIndex::Init(const Workload& /*workload*/) {
  root_ = kNil;
  free_ = kNil;
  first_ = kNil;
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

void AdmissionIndex::Split(int32_t t, SimTime d, const Transaction* txn,
                           int32_t* before, int32_t* after) {
  if (t == kNil) {
    *before = *after = kNil;
    return;
  }
  Node& n = nodes_[t];
  if (KeyBefore(d, txn, n)) {
    Split(n.left, d, txn, before, &n.left);
    *after = t;
  } else {
    Split(n.right, d, txn, &n.right, after);
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
    Split(t, node.deadline, node.txn, &node.left, &node.right);
    Pull(x);
    return x;
  }
  if (KeyBefore(node.deadline, node.txn, n)) {
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

int32_t AdmissionIndex::EraseAt(int32_t t, SimTime d, const Transaction* txn) {
  assert(t != kNil && "erasing a query the index does not hold");
  Node& n = nodes_[t];
  if (n.txn == txn) {
    const int32_t joined = Join(n.left, n.right);
    n.left = free_;
    free_ = t;
    return joined;
  }
  if (KeyBefore(d, txn, n)) {
    n.left = EraseAt(n.left, d, txn);
  } else {
    n.right = EraseAt(n.right, d, txn);
  }
  Pull(t);
  return t;
}

void AdmissionIndex::OnInsert(Transaction* query) {
  assert(query->is_query());
  int32_t x = free_;
  if (x != kNil) {
    free_ = nodes_[x].left;
  } else {
    x = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& n = nodes_[x];
  n.deadline = query->absolute_deadline();
  n.txn = query;
  n.priority = static_cast<uint32_t>(
      SplitMix64(static_cast<uint64_t>(query->id())) >> 32);
  n.own_work = query->remaining();
  n.left = n.right = kNil;
  Pull(x);
  if (first_ == kNil || KeyBefore(n.deadline, query, nodes_[first_])) {
    first_ = x;
  }
  root_ = InsertAt(root_, x);
}

void AdmissionIndex::OnRemove(const Transaction* query) {
  assert(query->is_query() && first_ != kNil);
  const bool was_first = nodes_[first_].txn == query;
  root_ = EraseAt(root_, query->absolute_deadline(), query);
  if (!was_first) return;
  first_ = root_;  // the next key ends the left spine
  while (first_ != kNil && nodes_[first_].left != kNil) {
    first_ = nodes_[first_].left;
  }
}

AdmissionIndex::Projection AdmissionIndex::Project(SimTime deadline,
                                                  int64_t lo, int64_t hi,
                                                  int64_t cap) const {
  Projection p;
  int64_t acc = 0;
  Descend(root_, deadline, lo, hi, cap, acc, p);
  p.endangered = std::min(p.endangered, cap);
  return p;
}

void AdmissionIndex::Descend(int32_t t, SimTime d, int64_t lo, int64_t hi,
                             int64_t cap, int64_t& acc, Projection& p) const {
  // Skip the keys due no later than d, adding their work to the prefix.
  while (t != kNil && nodes_[t].deadline <= d) {
    const Node& n = nodes_[t];
    acc += n.own_work + (n.left != kNil ? nodes_[n.left].work : 0);
    t = n.right;
  }
  if (t == kNil) {
    // The first later key, if any, comes next: everything ahead is earlier.
    p.earlier_work = acc;
    return;
  }
  // n is due after d. In EDF order: its left subtree, which straddles d,
  // then n, then its right subtree, which lies wholly past d.
  const Node& n = nodes_[t];
  Descend(n.left, d, lo, hi, cap, acc, p);
  acc += n.own_work;
  const int64_t m = n.deadline - acc;
  if (lo <= m && m < hi) ++p.endangered;
  CountLags(n.right, lo, hi, cap, acc, p.endangered);
}

void AdmissionIndex::CountLags(int32_t t, int64_t lo, int64_t hi,
                               int64_t cap, int64_t& acc,
                               int64_t& count) const {
  while (t != kNil && count < cap) {
    const Node& n = nodes_[t];
    // The subtree's lags, shifted by the work ahead of it, span
    // [min_m - acc, max_m - acc].
    const int64_t mn = n.min_m - acc;
    const int64_t mx = n.max_m - acc;
    const bool inside = lo <= mn && mx < hi;
    if (inside || mx < lo || mn >= hi) {  // all of the subtree or none
      if (inside) count += n.count;
      acc += n.work;
      return;
    }
    CountLags(n.left, lo, hi, cap, acc, count);
    acc += n.own_work;
    const int64_t m = n.deadline - acc;
    if (lo <= m && m < hi) ++count;
    t = n.right;
  }
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
  // With every penalty zero (the naive setting) the USM check compares the
  // endangered queries and the candidate at unit cost.
  const bool naive = weights.AllZeroPenalties();
  const double dmf_cost = naive ? 1.0 : weights.c_fm;
  const double rejection_cost = naive ? 1.0 : weights.c_r;
  const SimTime deadline = candidate.absolute_deadline();
  const AdmissionProjection projection = engine.ProjectAdmission(
      deadline, candidate.estimate(),
      params_.usm_check_enabled ? dmf_cost : 0.0, rejection_cost);

  // 1. Transaction deadline check: C_flex * EST + qe < qt. Rejecting an
  // unpromising query only raises user satisfaction when a rejection costs
  // no more than the deadline miss it prevents; with C_r > C_fm the
  // USM-rational move is to admit and let the firm deadline decide (the
  // system USM check still protects the other transactions).
  if (naive || !(weights.c_r > weights.c_fm)) {
    const double lhs = c_flex_ * static_cast<double>(projection.est) +
                       static_cast<double>(candidate.estimate());
    const double qt = static_cast<double>(deadline - engine.now());
    if (!(lhs < qt)) {
      ++rejected_by_deadline_;
      last_reject_reason_ = "deadline";
      return false;
    }
  }

  // 2. System USM check: the later-deadline queries that would newly miss
  // if the candidate's demand were slotted into the EDF schedule ahead of
  // them cost more than turning the candidate away.
  if (projection.endangers) {
    ++rejected_by_usm_;
    last_reject_reason_ = "usm";
    return false;
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
