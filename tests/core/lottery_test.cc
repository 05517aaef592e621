#include "unit/core/lottery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

namespace unitdb {
namespace {

std::vector<int> SampleMany(const LotterySampler& s, int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> counts(s.size(), 0);
  for (int i = 0; i < n; ++i) {
    const int pick = s.Sample(rng);
    if (pick >= 0) ++counts[pick];
  }
  return counts;
}

TEST(LotterySamplerTest, UniformFallbackWhenAllTicketsEqual) {
  LotterySampler s(4);
  auto counts = SampleMany(s, 40000, 71);
  for (int c : counts) {
    EXPECT_NEAR(c / 40000.0, 0.25, 0.02);
  }
}

TEST(LotterySamplerTest, ProportionalToShiftedTickets) {
  LotterySampler s(3);
  s.SetTicket(0, 1.0);
  s.SetTicket(1, 3.0);
  s.SetTicket(2, 5.0);
  // Weights after the min-shift: 0, 2, 4.
  auto counts = SampleMany(s, 60000, 73);
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(counts[1] / 60000.0, 1.0 / 3.0, 0.02);
  EXPECT_NEAR(counts[2] / 60000.0, 2.0 / 3.0, 0.02);
}

TEST(LotterySamplerTest, WeightsTrackMinShift) {
  LotterySampler s(3);
  s.SetTicket(0, 2.0);
  s.SetTicket(1, 5.0);
  s.SetTicket(2, 4.0);
  // Force the exact re-anchor that Sample() performs.
  Rng rng(79);
  s.Sample(rng);
  EXPECT_DOUBLE_EQ(s.WeightOf(0), 0.0);
  EXPECT_DOUBLE_EQ(s.WeightOf(1), 3.0);
  EXPECT_DOUBLE_EQ(s.WeightOf(2), 2.0);
}

TEST(LotterySamplerTest, LoweringTheMinimumRebases) {
  LotterySampler s(2);
  s.SetTicket(0, 1.0);
  s.SetTicket(1, 2.0);
  Rng rng(83);
  s.Sample(rng);
  EXPECT_DOUBLE_EQ(s.WeightOf(1), 1.0);
  s.SetTicket(0, -3.0);  // new minimum: weights shift by 4
  EXPECT_DOUBLE_EQ(s.WeightOf(0), 0.0);
  EXPECT_DOUBLE_EQ(s.WeightOf(1), 5.0);
}

TEST(LotterySamplerTest, IneligibleItemsNeverSampled) {
  LotterySampler s({false, true, true, true});
  s.SetTicket(0, 10.0);
  s.SetTicket(1, 1.0);
  s.SetTicket(2, 2.0);
  s.SetTicket(3, 3.0);
  EXPECT_EQ(s.eligible_count(), 3);
  auto counts = SampleMany(s, 30000, 89);
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[3], counts[2]);
}

TEST(LotterySamplerTest, NoEligibleReturnsMinusOne) {
  LotterySampler s({false, false});
  Rng rng(97);
  EXPECT_EQ(s.Sample(rng), -1);
}

TEST(LotterySamplerTest, TicketAccessorsRoundTrip) {
  LotterySampler s(3);
  s.SetTicket(1, -2.5);
  EXPECT_DOUBLE_EQ(s.ticket(1), -2.5);
  EXPECT_DOUBLE_EQ(s.ticket(0), 0.0);
}

TEST(LotterySamplerTest, SingleEligibleAlwaysPicked) {
  LotterySampler s({false, true, false});
  Rng rng(107);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(s.Sample(rng), 1);
  }
}

TEST(LotterySamplerTest, LargePopulationProportions) {
  const int n = 1024;
  LotterySampler s(n);
  // First half weight 1 (after shift), second half weight 3.
  for (int i = 0; i < n; ++i) {
    s.SetTicket(i, i < n / 2 ? 1.0 : 3.0);
  }
  // Min is 1.0 -> weights 0 and 2: only the second half can be picked.
  auto counts = SampleMany(s, 50000, 109);
  int first_half = 0, second_half = 0;
  for (int i = 0; i < n / 2; ++i) first_half += counts[i];
  for (int i = n / 2; i < n; ++i) second_half += counts[i];
  EXPECT_EQ(first_half, 0);
  EXPECT_EQ(second_half, 50000);
}

TEST(LotterySamplerTest, RandomUpdatesKeepTheExactMinimumShift) {
  // 13 items: not a power of two, so the min-tree has padding leaves. A
  // fixed random mask leaves about a fifth of them out of the draw. After
  // every ticket update, a draw re-anchors at the exact eligible minimum,
  // which a brute-force scan must reproduce bit for bit.
  const int n = 13;
  Rng ops(113);
  std::vector<bool> eligible(n);
  for (int i = 0; i < n; ++i) eligible[i] = ops.NextDouble() >= 0.2;
  LotterySampler s(eligible);
  ASSERT_GT(s.eligible_count(), 0);
  ASSERT_LT(s.eligible_count(), n);
  Rng draws(127);
  for (int step = 0; step < 2000; ++step) {
    const int i = static_cast<int>(ops.UniformInt(0, n - 1));
    s.SetTicket(i, ops.Uniform(-5.0, 5.0));
    s.Sample(draws);
    double min = std::numeric_limits<double>::infinity();
    for (int j = 0; j < n; ++j) {
      if (s.IsEligible(j)) min = std::min(min, s.ticket(j));
    }
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(s.WeightOf(j), s.IsEligible(j) ? s.ticket(j) - min : 0.0)
          << "step " << step << " item " << j;
    }
  }
}

}  // namespace
}  // namespace unitdb
