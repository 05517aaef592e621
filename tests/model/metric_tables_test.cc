// Walks the RunMetrics and WindowSample field tables (sched/metrics.h,
// obs/timeseries.h) and checks that every consumer generated from them
// treats each field by its tags: the differential oracle reports a field
// exactly when it is tagged compared, and the shard merges apply each
// field's merge rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "unit/model/diff.h"
#include "unit/shard/sharded.h"

namespace unitdb {
namespace {

/// Changes `v` so it no longer equals its old value: numbers grow by one,
/// stats gain an observation, vectors gain an element, and structs with a
/// field table grow in every member.
template <typename T>
void Perturb(T& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    v += 1;
  } else if constexpr (std::is_same_v<T, RunningStat>) {
    v.Add(1.0);
  } else if constexpr (requires { v.emplace_back(); }) {
    v.emplace_back();
  } else {
    for (const auto& f : FieldsOf(v)) v.*f.member += 1;
  }
}

/// Gives `v` a value derived from `k`, distinct for distinct `k`.
template <typename T>
void Fill(T& v, int k) {
  if constexpr (std::is_arithmetic_v<T>) {
    v = static_cast<T>(k);
  } else if constexpr (std::is_same_v<T, RunningStat>) {
    v.Add(k);
    v.Add(2.0 * k);
  } else if constexpr (std::is_same_v<T, std::vector<int64_t>>) {
    v.assign(static_cast<size_t>(k), k);  // length differs with k
  } else if constexpr (requires { v.emplace_back(); }) {
    v.emplace_back();
  } else {
    for (const auto& f : FieldsOf(v)) v.*f.member = k;
  }
}

/// True when some message names `field` ("field:", "field." or "field[").
bool Reported(const DiffResult& r, const std::string& field) {
  for (const std::string& m : r.divergences) {
    if (m.rfind(field, 0) == 0 && m.size() > field.size() &&
        std::strchr(":.[", m[field.size()]) != nullptr) {
      return true;
    }
  }
  return false;
}

TEST(MetricTablesTest, OracleReportsExactlyTheComparedFields) {
  int compared = 0;
  ForEachRunMetricsField([&]<typename F>(F field) {
    SCOPED_TRACE(field.name);
    RunMetrics a;
    RunMetrics b;
    Perturb(b.*F::member);
    DiffResult r;
    DiffMetrics(a, b, DiffOptions{}, &r);
    if constexpr (F::oracle == OracleRole::kCompared) {
      ++compared;
      EXPECT_GT(r.divergence_count, 0);
      EXPECT_TRUE(Reported(r, field.name))
          << (r.divergences.empty() ? "" : r.divergences[0]);
    } else {
      EXPECT_EQ(r.divergence_count, 0);
    }
  });
  EXPECT_EQ(compared, 29);  // 39 fields less 10 telemetry
}

// Fails when the oracle compares only the common prefix of the per-item
// arrays: a run that applied updates to an extra item must not pass.
TEST(MetricTablesTest, ResizedPerItemArraysDiverge) {
  RunMetrics a;
  a.per_item_applied_updates = {3, 4};
  RunMetrics b = a;
  b.per_item_applied_updates.push_back(0);
  DiffResult r;
  DiffMetrics(a, b, DiffOptions{}, &r);
  EXPECT_TRUE(Reported(r, "per_item_applied_updates"));
}

TEST(MetricTablesTest, ShardMergeAppliesEachFieldsRule) {
  RunMetrics a;
  RunMetrics b;
  ForEachRunMetricsField([&]<typename F>(F) {
    Fill(a.*F::member, 3);
    Fill(b.*F::member, 5);
  });
  RunMetrics merged = a;
  MergeShardMetrics(merged, b);
  ForEachRunMetricsField([&]<typename F>(F field) {
    SCOPED_TRACE(field.name);
    const auto& got = merged.*F::member;
    const auto& x = a.*F::member;
    const auto& y = b.*F::member;
    if constexpr (F::merge == ShardMerge::kSum) {
      EXPECT_EQ(got, x + y);
    } else if constexpr (F::merge == ShardMerge::kMax) {
      EXPECT_EQ(got, std::max(x, y));
    } else if constexpr (F::merge == ShardMerge::kStat) {
      RunningStat want = x;
      want.Merge(y);
      EXPECT_TRUE(got == want);
    } else if constexpr (F::merge == ShardMerge::kPerItem) {
      // Element-wise over the common prefix; shard 0's tail stands.
      EXPECT_EQ(got, (std::vector<int64_t>{8, 8, 8}));
    } else {
      EXPECT_TRUE(got == x);  // kSame, kJoin: shard 0's copy
    }
  });
}

TEST(MetricTablesTest, SeriesComparisonReportsEveryField) {
  int fields = 0;
  ForEachWindowSampleField([&]<typename F>(F field) {
    SCOPED_TRACE(field.name);
    ++fields;
    std::vector<WindowSample> a(2);
    std::vector<WindowSample> b(2);
    Perturb(b[1].*F::member);
    DiffResult r;
    DiffSeries(a, b, DiffOptions{}, &r);
    EXPECT_GT(r.divergence_count, 0);
    EXPECT_TRUE(Reported(r, std::string("series[1].") + field.name));
  });
  EXPECT_EQ(fields, 16);
}

TEST(MetricTablesTest, SeriesMergeAppliesEachFieldsRule) {
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  WindowSample a;
  WindowSample b;
  ForEachWindowSampleField([&]<typename F>(F) {
    Fill(a.*F::member, 3);
    Fill(b.*F::member, 5);
  });
  b.t_s = a.t_s;  // one window, seen by two shards

  // The expected merged window, rule by rule (table order puts `window`
  // before the `usm` derived from it).
  WindowSample want = a;
  ForEachWindowSampleField([&]<typename F>(F) {
    auto& w = want.*F::member;
    const auto& y = b.*F::member;
    if constexpr (F::merge == WindowMerge::kSum) {
      w += y;
    } else if constexpr (F::merge == WindowMerge::kMax) {
      w = std::max(w, y);
    } else if constexpr (F::merge == WindowMerge::kKnobMean) {
      w = (w + y) / 2;
    } else if constexpr (F::merge == WindowMerge::kDerived) {
      w = UsmDecompose(want.window, weights);
    }
  });
  DiffResult r;
  DiffSeries({want}, MergeSeries({{a}, {b}}, weights), DiffOptions{}, &r);
  EXPECT_EQ(r.divergence_count, 0)
      << (r.divergences.empty() ? "" : r.divergences[0]);
}

// The knob mean skips shards without a knob (NaN) and stays NaN when no
// shard has one.
TEST(MetricTablesTest, SeriesMergeSkipsMissingKnobs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  WindowSample a;
  WindowSample b;
  WindowSample c;
  a.admission_knob = nan;
  b.admission_knob = 1.5;
  c.admission_knob = 2.5;
  auto merged = MergeSeries({{a}, {b}, {c}}, UsmWeights{});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].admission_knob, 2.0);
  b.admission_knob = nan;
  c.admission_knob = nan;
  merged = MergeSeries({{a}, {b}, {c}}, UsmWeights{});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_TRUE(std::isnan(merged[0].admission_knob));
}

}  // namespace
}  // namespace unitdb
