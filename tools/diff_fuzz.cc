// Differential fuzzer: generates seed-derived random workloads + fault
// scenarios (model/gen.h), runs each through the optimized engine and the
// naive reference model, and compares semantic metrics, per-query outcomes,
// and window series bit-for-bit (model/diff.h). A linear case sweep rotates
// through {policy x faults on/off x streaming x shards x sessions x shedding
// x cache x flash crowd}. On divergence the case is shrunk (ddmin-lite) and a replay line
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
// Arguments go through Config: an unknown or repeated key, a value that is
// not a whole number, one out of range (cases below 1; case, shards,
// sessions, shed or cache negative or above INT_MAX; series, stream or
// expect_divergence other than 0 or 1) or an unknown perturb name prints
// INVALID_ARGUMENT and the usage, and exits 2.
//
// Exit codes: 0 success, 1 divergence found (or, with expect_divergence=1,
// none found), 2 usage error, 3 case setup error (scenario failed to
// compile / unknown policy).

#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>

#include "unit/common/config.h"
#include "unit/model/diff.h"
#include "unit/model/gen.h"

namespace {

using unitdb::Config;
using unitdb::Status;

struct Flags {
  int64_t cases = 100;
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
};

// Reads `key` as a whole number in [lo, hi]; `def` when absent. The first
// value out of range goes to `*error`; a malformed one to CheckNumbers.
int64_t InRange(const Config& config, const std::string& key, int64_t def,
                int64_t lo, int64_t hi, Status* error) {
  const int64_t v = config.GetInt(key, def);
  if (error->ok() && config.Has(key) && (v < lo || v > hi)) {
    *error = Status::InvalidArgument(
        key + "=" + config.GetString(key) + " is " +
        (v < lo ? "below " + std::to_string(lo)
                : "above " + std::to_string(hi)));
  }
  return v;
}

Status ParseFlags(int argc, char** argv, Flags* f) {
  auto config = Config::ParseArgs(argc, argv);
  if (!config.ok()) return config.status();
  if (Status s = config->ExpectKeys({"cases", "seed", "case", "series",
                                     "stream", "shards", "sessions", "shed",
                                     "cache", "perturb", "expect_divergence"});
      !s.ok()) {
    return s;
  }
  Status range;
  const auto count = [&](const char* key) {
    return static_cast<int>(InRange(*config, key, -1, 0, INT_MAX, &range));
  };
  const auto flag = [&](const char* key, int def) {
    return static_cast<int>(InRange(*config, key, def, 0, 1, &range));
  };
  f->cases = InRange(*config, "cases", f->cases, 1, INT64_MAX, &range);
  f->seed = static_cast<uint64_t>(
      InRange(*config, "seed", 1, 0, INT64_MAX, &range));
  f->only_case = count("case");
  f->shards_override = count("shards");
  f->sessions_override = count("sessions");
  f->shed_override = count("shed");
  f->cache_override = count("cache");
  f->opts.compare_series = flag("series", 1) == 1;
  f->stream_override = flag("stream", -1);
  f->expect_divergence = flag("expect_divergence", 0) == 1;
  if (Status s = config->CheckNumbers(); !s.ok()) return s;
  if (!range.ok()) return range;

  const std::string perturb = config->GetString("perturb", "none");
  if (perturb == "cflex") {
    f->opts.perturb = unitdb::Perturbation::kCFlexStep;
  } else if (perturb == "admit") {
    f->opts.perturb = unitdb::Perturbation::kAdmitOffByOne;
  } else if (perturb == "dropretry") {
    f->opts.perturb = unitdb::Perturbation::kDropRetry;
  } else if (perturb != "none") {
    return Status::InvalidArgument("perturb=" + perturb +
                                   " is not none, cflex, admit or dropretry");
  }
  for (const std::string& key : config->Keys()) {
    if (key != "cases" && key != "seed" && key != "case" &&
        key != "expect_divergence") {
      f->overrides += " " + key + "=" + config->GetString(key);
    }
  }
  return Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  Flags f;
  if (Status s = ParseFlags(argc, argv, &f); !s.ok()) {
    std::fprintf(stderr,
                 "%s\n"
                 "usage: %s [cases=N] [seed=S] [case=I] [series=0|1]\n"
                 "          [stream=0|1] [shards=K] [sessions=N] [shed=W]\n"
                 "          [cache=C] [perturb=none|cflex|admit|dropretry]\n"
                 "          [expect_divergence=0|1]\n",
                 s.ToString().c_str(), argv[0]);
    return 2;
  }
  const unitdb::DiffOptions& opts = f.opts;

  const int64_t begin = f.only_case >= 0 ? f.only_case : 0;
  const int64_t end = f.only_case >= 0 ? f.only_case + 1 : f.cases;

  int64_t divergent = 0;
  for (int64_t i = begin; i < end; ++i) {
    unitdb::DiffCase c = unitdb::GenerateCase(f.seed, i);
    if (f.stream_override >= 0) c.stream_queries = f.stream_override == 1;
    if (f.shards_override >= 0) c.shards = f.shards_override;
    if (f.sessions_override >= 0) {
      c.engine.session.sessions = f.sessions_override;
    }
    if (f.shed_override >= 0) c.engine.shed_watermark = f.shed_override;
    if (f.cache_override >= 0) c.engine.cache.capacity = f.cache_override;
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
                static_cast<long long>(c.gen_index), f.overrides.c_str());
    if (f.expect_divergence) break;  // self-test satisfied; stop early
  }

  const int64_t total = end - begin;
  std::printf("diff_fuzz: %lld/%lld cases divergent (seed=%llu%s)\n",
              static_cast<long long>(divergent),
              static_cast<long long>(total),
              static_cast<unsigned long long>(f.seed),
              opts.perturb == unitdb::Perturbation::kNone ? ""
                                                          : ", perturbed");
  if (f.expect_divergence) return divergent > 0 ? 0 : 1;
  return divergent == 0 ? 0 : 1;
}
