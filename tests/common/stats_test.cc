#include "unit/common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace unitdb {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStatTest, BasicMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, SingleValue) {
  RunningStat s;
  s.Add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStatTest, MergeMatchesSequential) {
  RunningStat a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    if (i % 2 == 0) a.Add(x);
    else b.Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatTest, MergeWithEmpty) {
  RunningStat a, empty;
  a.Add(1.0);
  a.Add(2.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2);
  RunningStat c;
  c.Merge(a);
  EXPECT_EQ(c.count(), 2);
  EXPECT_DOUBLE_EQ(c.mean(), 1.5);
}

TEST(RunningStatTest, ClearResets) {
  RunningStat s;
  s.Add(5.0);
  s.Clear();
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(CorrelationTest, PerfectPositive) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
}

TEST(CorrelationTest, PerfectNegative) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, y), -1.0, 1e-12);
  EXPECT_NEAR(SpearmanCorrelation(x, y), -1.0, 1e-12);
}

TEST(CorrelationTest, ConstantVectorGivesZero) {
  std::vector<double> x = {1, 1, 1, 1};
  std::vector<double> y = {1, 2, 3, 4};
  EXPECT_EQ(PearsonCorrelation(x, y), 0.0);
  EXPECT_EQ(SpearmanCorrelation(x, y), 0.0);
}

TEST(CorrelationTest, SizeMismatchGivesZero) {
  std::vector<double> x = {1, 2, 3};
  std::vector<double> y = {1, 2};
  EXPECT_EQ(PearsonCorrelation(x, y), 0.0);
}

TEST(CorrelationTest, SpearmanIsRankBased) {
  // A monotone nonlinear relation: Spearman 1, Pearson < 1.
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {1, 8, 27, 64, 125};
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
  EXPECT_LT(PearsonCorrelation(x, y), 1.0);
  EXPECT_GT(PearsonCorrelation(x, y), 0.8);
}

TEST(CorrelationTest, SpearmanHandlesTies) {
  std::vector<double> x = {1, 1, 2, 2};
  std::vector<double> y = {1, 1, 2, 2};
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
}

}  // namespace
}  // namespace unitdb
