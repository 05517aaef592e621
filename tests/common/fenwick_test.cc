#include "unit/common/fenwick.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "unit/common/rng.h"

namespace unitdb {
namespace {

TEST(FenwickTest, EmptyAfterReset) {
  FenwickTree t(8);
  EXPECT_EQ(t.size(), 8u);
  EXPECT_DOUBLE_EQ(t.total(), 0.0);
  for (size_t i = 0; i <= 8; ++i) {
    EXPECT_DOUBLE_EQ(t.PrefixSum(i), 0.0);
  }
}

TEST(FenwickTest, SetAndGet) {
  FenwickTree t(5);
  t.Set(2, 3.5);
  EXPECT_DOUBLE_EQ(t.Get(2), 3.5);
  EXPECT_DOUBLE_EQ(t.total(), 3.5);
  t.Set(2, 1.0);
  EXPECT_DOUBLE_EQ(t.Get(2), 1.0);
  EXPECT_DOUBLE_EQ(t.total(), 1.0);
}

TEST(FenwickTest, AddAccumulates) {
  FenwickTree t(4);
  t.Add(1, 2.0);
  t.Add(1, 3.0);
  EXPECT_DOUBLE_EQ(t.Get(1), 5.0);
}

TEST(FenwickTest, PrefixSumsMatchBruteForce) {
  const size_t n = 37;  // deliberately not a power of two
  FenwickTree t(n);
  std::vector<double> ref(n, 0.0);
  Rng rng(61);
  for (int iter = 0; iter < 500; ++iter) {
    const size_t i = rng.UniformInt(0, n - 1);
    const double w = rng.Uniform(0.0, 10.0);
    t.Set(i, w);
    ref[i] = w;
    const size_t q = rng.UniformInt(0, n);
    double expect = 0.0;
    for (size_t j = 0; j < q; ++j) expect += ref[j];
    ASSERT_NEAR(t.PrefixSum(q), expect, 1e-9);
  }
}

TEST(FenwickTest, FindPrefixLandsInCorrectSlot) {
  FenwickTree t(6);
  const double w[] = {1.0, 0.0, 2.0, 0.5, 0.0, 1.5};
  for (size_t i = 0; i < 6; ++i) t.Set(i, w[i]);
  // Cumulative boundaries: [0,1) -> 0, [1,3) -> 2, [3,3.5) -> 3, [3.5,5) -> 5.
  EXPECT_EQ(t.FindPrefix(0.0), 0u);
  EXPECT_EQ(t.FindPrefix(0.999), 0u);
  EXPECT_EQ(t.FindPrefix(1.0), 2u);
  EXPECT_EQ(t.FindPrefix(2.999), 2u);
  EXPECT_EQ(t.FindPrefix(3.0), 3u);
  EXPECT_EQ(t.FindPrefix(3.499), 3u);
  EXPECT_EQ(t.FindPrefix(3.5), 5u);
  EXPECT_EQ(t.FindPrefix(4.999), 5u);
}

TEST(FenwickTest, FindPrefixSamplingIsProportional) {
  FenwickTree t(4);
  t.Set(0, 1.0);
  t.Set(1, 2.0);
  t.Set(2, 0.0);
  t.Set(3, 1.0);
  Rng rng(67);
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[t.FindPrefix(rng.NextDouble() * t.total())];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.25, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.50, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.25, 0.01);
}

TEST(FenwickTest, ResetClears) {
  FenwickTree t(3);
  t.Set(0, 1.0);
  t.Reset(10);
  EXPECT_EQ(t.size(), 10u);
  EXPECT_DOUBLE_EQ(t.total(), 0.0);
}

TEST(FenwickTest, SingleSlot) {
  FenwickTree t(1);
  t.Set(0, 5.0);
  EXPECT_EQ(t.FindPrefix(2.5), 0u);
  EXPECT_DOUBLE_EQ(t.PrefixSum(1), 5.0);
}

// The K-dart descent returns FindPrefix's slot for every dart, whichever
// lane carries it. Integer weights make every prefix sum exact, so the
// exact node-boundary targets are hit, and a brute-force scan pins the
// slot itself; real weights check the lanes against each other. At 11 and
// 1011 slots a descent step reaches past the end while the last node
// covers only part of the slots beyond the dart's prefix, so taking the
// clamped node there would skip weight.
TEST(FenwickTest, FindPrefixesMatchFindPrefixForEveryDart) {
  Rng rng(131);
  for (const size_t n : {1u, 3u, 11u, 13u, 1000u, 1011u, 1024u, 1025u}) {
    for (const bool integral : {true, false}) {
      FenwickTree t(n);
      std::vector<double> w(n, 0.0);
      for (size_t i = 0; i < n; ++i) {
        if (rng.Bernoulli(0.25)) continue;  // zero-weight slots tie prefixes
        w[i] = integral ? static_cast<double>(rng.UniformInt(1, 9))
                        : rng.Uniform(0.0, 5.0);
        t.Set(i, w[i]);
      }
      const double total = t.total();
      std::vector<double> targets = {0.0, std::nextafter(total, 0.0), total,
                                     total + 1.0, 2.0 * total + 1.0};
      for (size_t i = 1; i <= n; ++i) {
        const double boundary = t.PrefixSum(i);
        targets.push_back(boundary);
        targets.push_back(std::nextafter(boundary, -1.0));
        targets.push_back(std::nextafter(boundary, 2.0 * total + 1.0));
      }
      // Pad to whole groups of eight with further darts.
      while (targets.size() % 8 != 0) {
        targets.push_back(rng.NextDouble() * total);
      }
      for (size_t g = 0; g < targets.size(); g += 8) {
        double darts[8];
        size_t slots[8];
        for (size_t d = 0; d < 8; ++d) darts[d] = targets[g + d];
        t.FindPrefixes(darts, slots);
        for (size_t d = 0; d < 8; ++d) {
          const double target = darts[d];
          ASSERT_EQ(slots[d], t.FindPrefix(target))
              << "n " << n << " target " << target << " lane " << d;
          if (!integral) continue;
          // Smallest i whose exact prefix through i exceeds the target.
          size_t expect = n - 1;
          double prefix = 0.0;
          for (size_t i = 0; i < n; ++i) {
            prefix += w[i];
            if (prefix > target) {
              expect = i;
              break;
            }
          }
          ASSERT_EQ(slots[d], expect) << "n " << n << " target " << target;
        }
      }
    }
  }
}

// Sum of `v[0..n)` with Neumaier's compensation: exact to well below the
// drift the tree accumulates.
double CompensatedSum(const std::vector<double>& v, size_t n) {
  double sum = 0.0;
  double carry = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double next = sum + v[i];
    carry += std::abs(sum) >= std::abs(v[i]) ? (sum - next) + v[i]
                                             : (v[i] - next) + sum;
    sum = next;
  }
  return sum + carry;
}

// total() and the nodes accumulate deltas, so both drift from the weights
// they stand for. Ten million updates of the modulator's ticket churn over
// 1024 slots (every weight decays, accesses lower it to a floor at 0,
// update arrivals raise it by less than one) keep the drift far below
// anything a draw can see: measured 1.8e-13 relative on a total near 2,300
// and 4.2e-10 absolute on the worst prefix, checked every million updates.
TEST(FenwickTest, LongChurnKeepsTotalAndPrefixesNearExact) {
  constexpr size_t kSlots = 1024;
  constexpr int kSets = 10'000'000;
  FenwickTree t(kSlots);
  std::vector<double> w(kSlots, 0.0);
  Rng rng(137);
  double worst_total = 0.0;
  double worst_prefix = 0.0;
  for (int step = 1; step <= kSets; ++step) {
    const size_t i = static_cast<size_t>(rng.UniformInt(0, kSlots - 1));
    double next = w[i] * std::pow(0.9, rng.NextDouble());
    if (rng.Bernoulli(0.3)) {
      next = std::max(0.0, next - rng.Uniform(0.0, 2.0));
    } else {
      next += rng.NextDouble();
    }
    w[i] = next;
    t.Set(i, next);
    if (step % 1'000'000 != 0) continue;
    const double exact_total = CompensatedSum(w, kSlots);
    ASSERT_GT(exact_total, 0.0);
    worst_total = std::max(
        worst_total, std::abs(t.total() - exact_total) / exact_total);
    for (size_t p = 1; p <= kSlots; ++p) {
      worst_prefix = std::max(
          worst_prefix, std::abs(t.PrefixSum(p) - CompensatedSum(w, p)));
    }
  }
  EXPECT_LT(worst_total, 1e-11);
  EXPECT_LT(worst_prefix, 1e-8);
}

}  // namespace
}  // namespace unitdb
