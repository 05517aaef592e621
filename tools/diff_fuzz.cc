// Differential fuzzer: generates seed-derived random workloads + fault
// scenarios (model/gen.h), runs each through the optimized engine and the
// naive reference model, and compares semantic metrics, per-query outcomes,
// and window series bit-for-bit (model/diff.h). A linear case sweep rotates
// through {policy x faults on/off x streaming x shards x sessions x shedding
// x cache}. On divergence the case is shrunk (ddmin-lite) and a replay line
// is printed: "diff_fuzz seed=S case=I" plus every override this run was
// given, so pasting it reproduces the divergence.
//
// Usage: diff_fuzz [cases=N] [seed=S] [case=I] [series=0|1] [stream=0|1]
//                  [shards=K] [sessions=N] [shed=W] [cache=C]
//                  [perturb=none|cflex|admit|dropretry]
//                  [expect_divergence=0|1]
//
//   cases=N              number of generated cases to run (default 100)
//   seed=S               base fuzz seed (default 1)
//   case=I               replay exactly one generated case index
//   series=0             skip the window-series comparison
//   stream=0|1           force the optimized side's trace behind a
//                        source-backed QuerySource (1) or in the workload's
//                        vector (0) for every case; the engine reads both
//                        through the same cursor (default: gen.h's
//                        rotation, source-backed every other 32-case block)
//   shards=K             force the sharded dimension for every case: 0 =
//                        monolithic diff, 1 = sharded-vs-monolithic
//                        identity, >1 = sharded-vs-sharded-reference
//                        (default: gen.h's rotation over {0,1,2,3})
//   sessions=N           force the closed-loop session count for every
//                        case: 0 = open-loop, N > 0 attaches N user
//                        sessions with the generator's retry/backoff knobs
//                        when the case drew them, defaults otherwise
//                        (default: gen.h's rotation, sessions every other
//                        256-case block)
//   shed=W               force the overload-shedding watermark for every
//                        case: 0 = shedding off, W > 0 = drop-oldest above
//                        a ready depth of W (default: gen.h's rotation)
//   cache=C              force the result-cache capacity for every case:
//                        0 = cache off, C > 0 = C item entries per engine
//                        (default: gen.h's rotation, cache every other
//                        1024-case block)
//   perturb=...          inject a known defect into the optimized side
//                        (harness self-test); dropretry needs a closed
//                        loop, so it forces sessions on for cases without
//                        them
//   expect_divergence=1  invert success: exit 0 only if a divergence was
//                        found, caught, and shrunk (self-test mode)
//
// Exit codes: 0 success, 1 divergence found (or, with expect_divergence=1,
// none found), 2 usage error, 3 case setup error (scenario failed to
// compile / unknown policy).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "unit/model/diff.h"
#include "unit/model/gen.h"

namespace {

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [cases=N] [seed=S] [case=I] [series=0|1]\n"
               "          [stream=0|1] [shards=K] [sessions=N] [shed=W]\n"
               "          [cache=C] [perturb=none|cflex|admit|dropretry]\n"
               "          [expect_divergence=0|1]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t cases = 100;
  uint64_t seed = 1;
  int64_t only_case = -1;
  int stream_override = -1;    // -1: keep the generator's rotation
  int shards_override = -1;    // -1: keep the generator's rotation
  int sessions_override = -1;  // -1: keep the generator's rotation
  int shed_override = -1;      // -1: keep the generator's rotation
  int cache_override = -1;     // -1: keep the generator's rotation
  unitdb::DiffOptions opts;
  bool expect_divergence = false;
  std::string overrides;  // the case-shaping arguments, for replay lines

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    if (eq == nullptr) return Usage(argv[0]);
    const std::string key(arg, eq - arg);
    const char* val = eq + 1;
    uint64_t num = 0;
    if (key == "cases" && ParseU64(val, &num)) {
      cases = num;
    } else if (key == "seed" && ParseU64(val, &num)) {
      seed = num;
    } else if (key == "case" && ParseU64(val, &num)) {
      only_case = static_cast<int64_t>(num);
    } else if (key == "series" && ParseU64(val, &num)) {
      opts.compare_series = num != 0;
    } else if (key == "stream" && ParseU64(val, &num)) {
      stream_override = num != 0 ? 1 : 0;
    } else if (key == "shards" && ParseU64(val, &num)) {
      shards_override = static_cast<int>(num);
    } else if (key == "sessions" && ParseU64(val, &num)) {
      sessions_override = static_cast<int>(num);
    } else if (key == "shed" && ParseU64(val, &num)) {
      shed_override = static_cast<int>(num);
    } else if (key == "cache" && ParseU64(val, &num)) {
      cache_override = static_cast<int>(num);
    } else if (key == "expect_divergence" && ParseU64(val, &num)) {
      expect_divergence = num != 0;
    } else if (key == "perturb") {
      if (std::strcmp(val, "none") == 0) {
        opts.perturb = unitdb::Perturbation::kNone;
      } else if (std::strcmp(val, "cflex") == 0) {
        opts.perturb = unitdb::Perturbation::kCFlexStep;
      } else if (std::strcmp(val, "admit") == 0) {
        opts.perturb = unitdb::Perturbation::kAdmitOffByOne;
      } else if (std::strcmp(val, "dropretry") == 0) {
        opts.perturb = unitdb::Perturbation::kDropRetry;
      } else {
        return Usage(argv[0]);
      }
    } else {
      return Usage(argv[0]);
    }
    if (key != "cases" && key != "seed" && key != "case" &&
        key != "expect_divergence") {
      overrides += " " + key + "=" + val;
    }
  }

  const int64_t begin = only_case >= 0 ? only_case : 0;
  const int64_t end =
      only_case >= 0 ? only_case + 1 : static_cast<int64_t>(cases);

  int64_t divergent = 0;
  for (int64_t i = begin; i < end; ++i) {
    unitdb::DiffCase c = unitdb::GenerateCase(seed, i);
    if (stream_override >= 0) c.stream_queries = stream_override == 1;
    if (shards_override >= 0) c.shards = shards_override;
    if (sessions_override >= 0) c.engine.session.sessions = sessions_override;
    if (shed_override >= 0) c.engine.shed_watermark = shed_override;
    if (cache_override >= 0) c.engine.cache.capacity = cache_override;
    if (opts.perturb == unitdb::Perturbation::kDropRetry &&
        c.engine.session.sessions == 0) {
      c.engine.session.sessions = 4;  // the defect needs a closed loop
    }
    const auto result = unitdb::RunDiff(c, opts);
    if (!result.ok()) {
      std::fprintf(stderr, "SETUP-ERROR %s: %s\n",
                   unitdb::DescribeCase(c).c_str(),
                   result.status().ToString().c_str());
      return 3;
    }
    if (result->equivalent) continue;

    ++divergent;
    std::printf("DIVERGENCE %s (%lld mismatched fields)\n",
                unitdb::DescribeCase(c).c_str(),
                static_cast<long long>(result->divergence_count));
    for (const std::string& msg : result->divergences) {
      std::printf("  %s\n", msg.c_str());
    }
    const unitdb::DiffCase shrunk = unitdb::ShrinkCase(c, opts);
    std::printf("  shrunk: %s\n", unitdb::DescribeCase(shrunk).c_str());
    std::printf("  replay: diff_fuzz seed=%llu case=%lld%s\n",
                static_cast<unsigned long long>(c.gen_seed),
                static_cast<long long>(c.gen_index), overrides.c_str());
    if (expect_divergence) break;  // self-test satisfied; stop early
  }

  const int64_t total = end - begin;
  std::printf("diff_fuzz: %lld/%lld cases divergent (seed=%llu%s)\n",
              static_cast<long long>(divergent),
              static_cast<long long>(total),
              static_cast<unsigned long long>(seed),
              opts.perturb == unitdb::Perturbation::kNone ? ""
                                                          : ", perturbed");
  if (expect_divergence) return divergent > 0 ? 0 : 1;
  return divergent == 0 ? 0 : 1;
}
