#include "unit/obs/counters.h"

#include <gtest/gtest.h>

namespace unitdb {
namespace {

TEST(CounterRegistryTest, StartsEmpty) {
  CounterRegistry reg;
  EXPECT_TRUE(reg.empty());
  EXPECT_TRUE(reg.CounterSnapshot().empty());
  // Value lookups do not create entries.
  EXPECT_EQ(reg.CounterValue("nope"), 0);
  EXPECT_TRUE(reg.empty());
}

TEST(CounterRegistryTest, CounterReferenceIsStable) {
  CounterRegistry reg;
  int64_t& a = reg.Counter("a");
  a = 7;
  // Registering more names must not move the earlier node.
  for (int i = 0; i < 100; ++i) {
    reg.Counter("filler." + std::to_string(i));
  }
  a += 1;
  EXPECT_EQ(reg.CounterValue("a"), 8);
  EXPECT_EQ(&reg.Counter("a"), &a);
}

TEST(CounterRegistryTest, SnapshotsAreSortedByName) {
  CounterRegistry reg;
  reg.Counter("zeta") = 1;
  reg.Counter("alpha") = 2;
  reg.Counter("mid") = 3;
  const auto counters = reg.CounterSnapshot();
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[0].first, "alpha");
  EXPECT_EQ(counters[1].first, "mid");
  EXPECT_EQ(counters[2].first, "zeta");
}

}  // namespace
}  // namespace unitdb
