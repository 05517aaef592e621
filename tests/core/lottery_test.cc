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

// k Sample calls on a copy of `s`: appends the picks and returns how many
// of them drew more than their dart (a fallback's extra UniformInt).
int SampleSequentially(LotterySampler s, Rng& rng, int k,
                       std::vector<int>& picks) {
  int fallbacks = 0;
  for (int i = 0; i < k; ++i) {
    Rng dart_only = rng;
    dart_only.NextU64();
    const int pick = s.Sample(rng);
    if (pick < 0) break;
    picks.push_back(pick);
    Rng after = rng;
    if (after.NextU64() != dart_only.NextU64()) ++fallbacks;
  }
  return fallbacks;
}

// Checks SampleBatch(k) against k Sample calls on copies of `s` and `rng`:
// the same picks, and the same Rng state after. Returns the sequential
// draws' fallback count.
int ExpectBatchMatchesSequential(const LotterySampler& s, const Rng& rng,
                                 int k) {
  Rng seq_rng = rng;
  std::vector<int> expected;
  const int fallbacks = SampleSequentially(s, seq_rng, k, expected);
  LotterySampler batch = s;
  Rng batch_rng = rng;
  std::vector<int> picks;
  batch.SampleBatch(batch_rng, k,
                    [&picks](int pick) { picks.push_back(pick); });
  EXPECT_EQ(picks, expected) << "k " << k;
  EXPECT_EQ(batch_rng.NextU64(), seq_rng.NextU64()) << "k " << k;
  return fallbacks;
}

// A random corpus of sizes, eligibility masks (all, none, one, about a
// quarter of the items, as a shard sees) and ticket histories: every batch
// size draws exactly what the same number of Sample calls draws, through
// both fallbacks (the all-zero uniform lottery and a dart that lands on an
// ineligible slot).
TEST(LotterySamplerTest, BatchDrawMatchesSequentialSamples) {
  Rng gen(139);
  int uniform_draws = 0;
  int fallback_draws = 0;
  for (int c = 0; c < 160; ++c) {
    const int n = static_cast<int>(gen.UniformInt(1, 1100));
    std::vector<bool> eligible(static_cast<size_t>(n), true);
    if (c % 4 == 1) eligible.assign(eligible.size(), false);
    if (c % 4 == 2) {
      eligible.assign(eligible.size(), false);
      eligible[static_cast<size_t>(gen.UniformInt(0, n - 1))] = true;
    }
    if (c % 4 == 3) {
      for (int i = 0; i < n; ++i) eligible[i] = gen.Bernoulli(0.25);
    }
    LotterySampler s(eligible);
    // Every fifth history leaves the tickets equal: all-zero weights.
    const int sets =
        c % 5 == 0 ? 0 : static_cast<int>(gen.UniformInt(1, 3 * n));
    for (int step = 0; step < sets; ++step) {
      const int i = static_cast<int>(gen.UniformInt(0, n - 1));
      // Mostly tickets like the modulator's; now and then one huge ticket
      // that is overwritten later, whose cancellation drifts total().
      s.SetTicket(i, gen.Bernoulli(0.01) ? 1e16 : gen.Uniform(-5.0, 5.0));
    }
    for (const int k : {0, 1, 7, 8, 9, 1024}) {
      const Rng rng(SplitMix64(static_cast<uint64_t>(c * 8 + k)));
      const int fallbacks = ExpectBatchMatchesSequential(s, rng, k);
      if (s.eligible_count() == 0 || k == 0) continue;
      // WeightOf reads the weights as of the last re-anchor; Sample
      // re-anchors first, so compare on a sampler that has drawn.
      LotterySampler drawn = s;
      Rng probe = rng;
      drawn.Sample(probe);
      double shifted = 0.0;
      for (int i = 0; i < n; ++i) shifted += drawn.WeightOf(i);
      if (shifted == 0.0) {
        uniform_draws += k;
      } else {
        fallback_draws += fallbacks;
      }
    }
  }
  EXPECT_GT(uniform_draws, 0);
  EXPECT_GT(fallback_draws, 0);
}

// Cancellation can leave total() above the tree's own sum. Here 1e16
// swallows slot 2's +3 in total() (1e16 + 3 rounds to 1e16 + 4) but not in
// slot 2's own node, so once slot 1 drops back to 0, total() reads 4 over
// a true weight of 3 and about a quarter of the darts land past slot 2, on
// ineligible slot 3. Sample falls back to a uniform-eligible draw there,
// and the batch replays those groups pick for pick.
TEST(LotterySamplerTest, BatchReplaysGroupsWithADartOnAnIneligibleSlot) {
  LotterySampler s({true, true, true, false});
  s.SetTicket(1, 1e16);
  s.SetTicket(2, 3.0);
  s.SetTicket(1, 0.0);
  EXPECT_EQ(s.WeightOf(2), 3.0);
  Rng rng(149);
  Rng seq_rng = rng;
  std::vector<int> expected;
  const int fallbacks = SampleSequentially(s, seq_rng, 64, expected);
  EXPECT_GT(fallbacks, 5);
  EXPECT_LT(fallbacks, 32);
  EXPECT_EQ(ExpectBatchMatchesSequential(s, rng, 64), fallbacks);
}

}  // namespace
}  // namespace unitdb
