#ifndef UNIT_TXN_OUTCOME_H_
#define UNIT_TXN_OUTCOME_H_

#include <cstdint>

namespace unitdb {

/// The four user-query fortunes of the paper (Section 2.1) plus kPending for
/// queries still in flight.
enum class Outcome {
  kPending = 0,
  kSuccess,       ///< met both deadline and freshness requirement
  kRejected,      ///< turned away by admission control
  kDeadlineMiss,  ///< admitted but missed its firm deadline (DMF)
  kDataStale,     ///< met the deadline but not the freshness requirement (DSF)
};

/// Short stable name for reports ("success", "rejected", "dmf", "dsf").
inline const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kPending:
      return "pending";
    case Outcome::kSuccess:
      return "success";
    case Outcome::kRejected:
      return "rejected";
    case Outcome::kDeadlineMiss:
      return "dmf";
    case Outcome::kDataStale:
      return "dsf";
  }
  return "?";
}

/// The OutcomeCounts field table, X(name), in declaration order. `submitted`
/// counts every query that arrived (success + rejected + dmf + dsf +
/// pending); the other four are the outcome buckets.
#define UNIT_OUTCOME_COUNTS_FIELDS(X) \
  X(submitted) X(success) X(rejected) X(dmf) X(dsf)

/// Cumulative outcome counters over submitted user queries. Policies diff two
/// snapshots to obtain per-control-window ratios.
struct OutcomeCounts {
#define UNIT_DECLARE_FIELD(name) int64_t name = 0;
  UNIT_OUTCOME_COUNTS_FIELDS(UNIT_DECLARE_FIELD)
#undef UNIT_DECLARE_FIELD

  int64_t resolved() const { return success + rejected + dmf + dsf; }

  /// Adds `n` to the bucket `o` resolves into (kPending has none).
  /// `submitted` is the caller's to count.
  void Bump(Outcome o, int64_t n = 1) {
    switch (o) {
      case Outcome::kSuccess:
        success += n;
        break;
      case Outcome::kRejected:
        rejected += n;
        break;
      case Outcome::kDeadlineMiss:
        dmf += n;
        break;
      case Outcome::kDataStale:
        dsf += n;
        break;
      case Outcome::kPending:
        break;
    }
  }

  /// Success ratio over all submitted queries (the paper's naive USM).
  double SuccessRatio() const {
    return submitted > 0 ? static_cast<double>(success) /
                               static_cast<double>(submitted)
                         : 0.0;
  }
  double RejectionRatio() const {
    return submitted > 0 ? static_cast<double>(rejected) /
                               static_cast<double>(submitted)
                         : 0.0;
  }
  double DmfRatio() const {
    return submitted > 0 ? static_cast<double>(dmf) /
                               static_cast<double>(submitted)
                         : 0.0;
  }
  double DsfRatio() const {
    return submitted > 0 ? static_cast<double>(dsf) /
                               static_cast<double>(submitted)
                         : 0.0;
  }

  OutcomeCounts& operator+=(const OutcomeCounts& rhs) {
#define UNIT_ADD_FIELD(name) name += rhs.name;
    UNIT_OUTCOME_COUNTS_FIELDS(UNIT_ADD_FIELD)
#undef UNIT_ADD_FIELD
    return *this;
  }
  OutcomeCounts operator-(const OutcomeCounts& rhs) const {
    OutcomeCounts d;
#define UNIT_SUB_FIELD(name) d.name = this->name - rhs.name;
    UNIT_OUTCOME_COUNTS_FIELDS(UNIT_SUB_FIELD)
#undef UNIT_SUB_FIELD
    return d;
  }
  bool operator==(const OutcomeCounts&) const = default;
};

/// Name and member of every field, in declaration order, for generic
/// walkers (found by argument-dependent lookup, like UsmBreakdown's).
inline const auto& FieldsOf(const OutcomeCounts&) {
  struct Field {
    const char* name;
    int64_t OutcomeCounts::*member;
  };
  static constexpr Field kFields[] = {
#define UNIT_FIELD_ENTRY(name) {#name, &OutcomeCounts::name},
      UNIT_OUTCOME_COUNTS_FIELDS(UNIT_FIELD_ENTRY)
#undef UNIT_FIELD_ENTRY
  };
  return kFields;
}

}  // namespace unitdb

#endif  // UNIT_TXN_OUTCOME_H_
