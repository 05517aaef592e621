#ifndef UNIT_CORE_USM_H_
#define UNIT_CORE_USM_H_

#include <algorithm>
#include <vector>

#include "unit/txn/outcome.h"

namespace unitdb {

/// The User Satisfaction Metric weights (paper Section 2.3): the success
/// gain G_s (normalized to 1) and the three failure penalties, all
/// expressed relative to G_s.
struct UsmWeights {
  double gain = 1.0;  ///< G_s
  double c_r = 0.0;   ///< rejection penalty
  double c_fm = 0.0;  ///< deadline-missed failure penalty
  double c_fs = 0.0;  ///< data-stale failure penalty

  /// True when every penalty is zero: the paper's "naive" setting where
  /// USM degenerates to the plain success ratio.
  bool AllZeroPenalties() const {
    return c_r == 0.0 && c_fm == 0.0 && c_fs == 0.0;
  }

  /// Width of the attainable USM interval [-max penalty, gain].
  double Range() const {
    return gain + std::max({c_r, c_fm, c_fs});
  }

  bool operator==(const UsmWeights&) const = default;
};

/// The UsmBreakdown field table, X(name): the average success gain and the
/// average rejection, DMF and DSF costs.
#define UNIT_USM_BREAKDOWN_FIELDS(X) X(s) X(r) X(fm) X(fs)

/// Per-term decomposition of the average USM (Eq. 5): USM = S - R - Fm - Fs.
struct UsmBreakdown {
#define UNIT_DECLARE_FIELD(name) double name = 0.0;
  UNIT_USM_BREAKDOWN_FIELDS(UNIT_DECLARE_FIELD)
#undef UNIT_DECLARE_FIELD

  double Value() const { return s - r - fm - fs; }
};

/// Name and member of every field, in declaration order (see the
/// OutcomeCounts overload).
inline const auto& FieldsOf(const UsmBreakdown&) {
  struct Field {
    const char* name;
    double UsmBreakdown::*member;
  };
  static constexpr Field kFields[] = {
#define UNIT_FIELD_ENTRY(name) {#name, &UsmBreakdown::name},
      UNIT_USM_BREAKDOWN_FIELDS(UNIT_FIELD_ENTRY)
#undef UNIT_FIELD_ENTRY
  };
  return kFields;
}

/// Total USM over all submitted queries (Eq. 4).
double UsmTotal(const OutcomeCounts& counts, const UsmWeights& weights);

/// Average USM per submitted query (Eq. 5); 0 with no queries.
double UsmAverage(const OutcomeCounts& counts, const UsmWeights& weights);

/// Eq. 5 decomposition.
UsmBreakdown UsmDecompose(const OutcomeCounts& counts,
                          const UsmWeights& weights);

/// Multi-preference extension (the paper assumes one preference class and
/// notes the generalization in Section 3.1): total/average USM over
/// per-class counters, each valued by its own weights. A class index beyond
/// `class_weights` falls back to the last entry; empty weights mean naive.
double UsmTotalMulti(const std::vector<OutcomeCounts>& per_class_counts,
                     const std::vector<UsmWeights>& class_weights);
double UsmAverageMulti(const std::vector<OutcomeCounts>& per_class_counts,
                       const std::vector<UsmWeights>& class_weights);

/// Weights for `preference_class` under the fallback rule above.
const UsmWeights& WeightsForClass(const std::vector<UsmWeights>& class_weights,
                                  int preference_class);

}  // namespace unitdb

#endif  // UNIT_CORE_USM_H_
