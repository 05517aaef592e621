// Fuzzed differential equivalence: >= 200 generated cases per policy must
// agree bit-for-bit between the optimized engine and the naive reference
// model. Runs under the `fuzz` ctest label so sanitizer jobs can opt in.

#include <gtest/gtest.h>

#include <string>

#include "unit/model/diff.h"
#include "unit/model/gen.h"

namespace unitdb {
namespace {

// One fixed seed so failures replay exactly via
//   diff_fuzz seed=20060402 case=INDEX
constexpr uint64_t kFuzzSeed = 20060402;  // ICDE 2006 vintage

// GenerateCase rotates policy = [unit, imu, odu, qmf][index % 4], so a
// contiguous index range [base, base + 4 * kCasesPerPolicy) covers every
// policy kCasesPerPolicy times, with the case matrix's other toggles
// (src/unit/model/gen.h) rotating underneath.
constexpr int kCasesPerPolicy = 200;

class DiffFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(DiffFuzzTest, GeneratedCaseIsEquivalent) {
  const int policy_slot = GetParam();
  for (int i = 0; i < kCasesPerPolicy; ++i) {
    const int index = 4 * i + policy_slot;
    const DiffCase c = GenerateCase(kFuzzSeed, index);
    auto result = RunDiff(c);
    ASSERT_TRUE(result.ok())
        << DescribeCase(c) << ": " << result.status().ToString();
    ASSERT_TRUE(result->equivalent)
        << DescribeCase(c) << ": " << result->divergence_count
        << " divergences; first: "
        << (result->divergences.empty() ? std::string("<none>")
                                        : result->divergences[0])
        << "\nreplay: diff_fuzz seed=" << kFuzzSeed << " case=" << index;
  }
}

std::string PolicySlotName(const ::testing::TestParamInfo<int>& info) {
  static const char* const kNames[] = {"unit", "imu", "odu", "qmf"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, DiffFuzzTest,
                         ::testing::Values(0, 1, 2, 3), PolicySlotName);

}  // namespace
}  // namespace unitdb
