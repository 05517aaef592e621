#include "unit/workload/query_trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace unitdb {
namespace {

QueryTraceParams SmallParams() {
  QueryTraceParams p;
  p.num_items = 64;
  p.duration = SecondsToSim(200.0);
  p.seed = 7;
  return p;
}

TEST(QueryTraceTest, ValidatesParameters) {
  QueryTraceParams p = SmallParams();
  p.num_items = 0;
  EXPECT_FALSE(GenerateQueryTrace(p).ok());
  p = SmallParams();
  p.base_rate_hz = 0.0;
  EXPECT_FALSE(GenerateQueryTrace(p).ok());
  p = SmallParams();
  p.burst_rate_multiplier = 0.5;
  EXPECT_FALSE(GenerateQueryTrace(p).ok());
  p = SmallParams();
  p.freshness_req = 1.5;
  EXPECT_FALSE(GenerateQueryTrace(p).ok());
  p = SmallParams();
  p.locality_p = 1.0;
  EXPECT_FALSE(GenerateQueryTrace(p).ok());
  p = SmallParams();
  p.exec_max_ms = p.exec_min_ms / 2;
  EXPECT_FALSE(GenerateQueryTrace(p).ok());
  // The engine sizes per-class counters to the largest class: the bound.
  p = SmallParams();
  p.num_preference_classes = kMaxPreferenceClasses + 1;
  auto too_many = GenerateQueryTrace(p);
  ASSERT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status().code(), StatusCode::kInvalidArgument);
  p.num_preference_classes = kMaxPreferenceClasses;
  EXPECT_TRUE(GenerateQueryTrace(p).ok());
}

TEST(QueryTraceTest, BasicInvariants) {
  auto w = GenerateQueryTrace(SmallParams());
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->num_items, 64);
  EXPECT_GT(w->queries.size(), 100u);
  SimTime last = -1;
  for (const auto& q : w->queries) {
    EXPECT_GE(q.arrival, 0);
    EXPECT_LT(q.arrival, w->duration);
    EXPECT_GE(q.arrival, last) << "arrivals must be sorted";
    last = q.arrival;
    EXPECT_GT(q.exec, 0);
    EXPECT_GT(q.relative_deadline, 0);
    EXPECT_DOUBLE_EQ(q.freshness_req, 0.9);
    EXPECT_FALSE(q.items.empty());
    for (ItemId item : q.items) {
      EXPECT_GE(item, 0);
      EXPECT_LT(item, w->num_items);
    }
    // Read sets hold distinct items.
    auto items = q.items;
    std::sort(items.begin(), items.end());
    EXPECT_EQ(std::adjacent_find(items.begin(), items.end()), items.end());
  }
}

TEST(QueryTraceTest, DeterministicForSameSeed) {
  auto a = GenerateQueryTrace(SmallParams());
  auto b = GenerateQueryTrace(SmallParams());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->queries.size(), b->queries.size());
  for (size_t i = 0; i < a->queries.size(); ++i) {
    EXPECT_EQ(a->queries[i].arrival, b->queries[i].arrival);
    EXPECT_EQ(a->queries[i].exec, b->queries[i].exec);
    EXPECT_EQ(a->queries[i].items, b->queries[i].items);
  }
}

TEST(QueryTraceTest, SeedChangesTrace) {
  QueryTraceParams p = SmallParams();
  auto a = GenerateQueryTrace(p);
  p.seed = 8;
  auto b = GenerateQueryTrace(p);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->queries.size(), b->queries.size());
}

TEST(QueryTraceTest, RateScalesQueryCount) {
  QueryTraceParams p = SmallParams();
  p.duration = SecondsToSim(500.0);
  auto lo = GenerateQueryTrace(p);
  p.base_rate_hz *= 3.0;
  auto hi = GenerateQueryTrace(p);
  ASSERT_TRUE(lo.ok() && hi.ok());
  EXPECT_GT(hi->queries.size(), 2 * lo->queries.size());
}

TEST(QueryTraceTest, PopularityIsSkewed) {
  QueryTraceParams p = SmallParams();
  p.duration = SecondsToSim(1000.0);
  auto w = GenerateQueryTrace(p);
  ASSERT_TRUE(w.ok());
  auto counts = w->QueryAccessCounts();
  const int64_t total = std::accumulate(counts.begin(), counts.end(), 0LL);
  // Top quarter of item ids (the Zipf head) must dominate the tail half.
  int64_t head = 0, tail = 0;
  for (int i = 0; i < w->num_items / 4; ++i) head += counts[i];
  for (int i = w->num_items / 2; i < w->num_items; ++i) tail += counts[i];
  EXPECT_GT(head, 2 * tail);
  EXPECT_GT(total, 0);
}

TEST(QueryTraceTest, DeadlinesSpanTheConfiguredRange) {
  QueryTraceParams p = SmallParams();
  p.duration = SecondsToSim(2000.0);
  auto w = GenerateQueryTrace(p);
  ASSERT_TRUE(w.ok());
  double mean_exec_ms = 0.0, max_exec_ms = 0.0;
  for (const auto& q : w->queries) {
    mean_exec_ms += SimToSeconds(q.exec) * 1000.0;
    max_exec_ms = std::max(max_exec_ms, SimToSeconds(q.exec) * 1000.0);
  }
  mean_exec_ms /= static_cast<double>(w->queries.size());
  for (const auto& q : w->queries) {
    const double d_ms = SimToSeconds(q.relative_deadline) * 1000.0;
    EXPECT_GE(d_ms, p.deadline_lo_factor * mean_exec_ms - 1e-6);
    EXPECT_LE(d_ms, p.deadline_hi_factor * max_exec_ms + 1e-6);
  }
}

TEST(QueryTraceTest, ArrivalsAreBurstier_ThanPoisson) {
  QueryTraceParams p = SmallParams();
  p.duration = SecondsToSim(2000.0);
  auto w = GenerateQueryTrace(p);
  ASSERT_TRUE(w.ok());
  // Index of dispersion of per-second counts: Poisson ~1; an MMPP with a
  // 25x burst state must be far larger.
  std::vector<int> per_second(2000, 0);
  for (const auto& q : w->queries) {
    ++per_second[static_cast<size_t>(SimToSeconds(q.arrival))];
  }
  double mean = 0.0;
  for (int c : per_second) mean += c;
  mean /= per_second.size();
  double var = 0.0;
  for (int c : per_second) var += (c - mean) * (c - mean);
  var /= per_second.size();
  EXPECT_GT(var / mean, 3.0);
}

TEST(QueryTraceTest, LocalityRepeatsRecentItems) {
  QueryTraceParams with = SmallParams();
  with.num_items = 1024;
  with.duration = SecondsToSim(500.0);
  QueryTraceParams without = with;
  without.locality_p = 0.0;
  auto a = GenerateQueryTrace(with);
  auto b = GenerateQueryTrace(without);
  ASSERT_TRUE(a.ok() && b.ok());
  // Working-set reuse concentrates accesses on fewer distinct items than
  // independent Zipf draws do.
  auto distinct_items = [](const Workload& w) {
    std::vector<bool> seen(w.num_items, false);
    int distinct = 0;
    for (const auto& q : w.queries) {
      for (ItemId item : q.items) {
        if (!seen[item]) {
          seen[item] = true;
          ++distinct;
        }
      }
    }
    return distinct;
  };
  EXPECT_LT(distinct_items(*a), distinct_items(*b) * 3 / 4);
}

TEST(QueryTraceTest, UtilizationIsReasonable) {
  QueryTraceParams p;  // full default parameters
  p.seed = 42;
  auto w = GenerateQueryTrace(p);
  ASSERT_TRUE(w.ok());
  const double util = w->QueryUtilization();
  EXPECT_GT(util, 0.10);
  EXPECT_LT(util, 0.80);
}

}  // namespace
}  // namespace unitdb
