#include "unit/faults/scenario.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

namespace unitdb {

namespace {

struct KindName {
  FaultKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::kUpdateOutage, "update-outage"},
    {FaultKind::kUpdateBurst, "update-burst"},
    {FaultKind::kLoadStep, "load-step"},
    {FaultKind::kServiceSlowdown, "service-slowdown"},
    {FaultKind::kFreshnessShift, "freshness-shift"},
    {FaultKind::kRetryStorm, "retry-storm"},
};

std::string FaultPrefix(size_t index) {
  return "fault" + std::to_string(index) + ".";
}

Status SpecError(size_t index, const std::string& what) {
  return Status::InvalidArgument("fault" + std::to_string(index) + ": " +
                                 what);
}

/// Per-kind field requirements: which optional keys the kind consumes.
/// Everything not consumed is forbidden, so a stray `factor=` on an outage
/// fails instead of being silently ignored.
struct KindFields {
  bool items = false;
  bool rate_hz = false;
  bool factor = false;
  bool delta = false;
};

KindFields FieldsOf(FaultKind kind) {
  KindFields f;
  switch (kind) {
    case FaultKind::kUpdateOutage:
      f.items = true;
      break;
    case FaultKind::kUpdateBurst:
      f.items = true;
      f.rate_hz = true;
      break;
    case FaultKind::kLoadStep:
    case FaultKind::kRetryStorm:
      f.rate_hz = true;
      break;
    case FaultKind::kServiceSlowdown:
      f.factor = true;
      break;
    case FaultKind::kFreshnessShift:
      f.delta = true;
      break;
  }
  return f;
}

Status ValidateFault(const FaultSpec& fault, size_t index) {
  if (fault.start_s < 0.0) return SpecError(index, "start_s < 0");
  if (fault.end_s <= fault.start_s) {
    return SpecError(index, "end_s must be > start_s");
  }
  const KindFields fields = FieldsOf(fault.kind);
  if (fields.items && fault.items.empty()) {
    return SpecError(index, std::string(FaultKindName(fault.kind)) +
                                " requires items=");
  }
  if (fields.rate_hz && fault.rate_hz <= 0.0) {
    return SpecError(index, std::string(FaultKindName(fault.kind)) +
                                " requires rate_hz > 0");
  }
  if (fields.factor && fault.factor <= 0.0) {
    return SpecError(index, "service-slowdown requires factor > 0");
  }
  if (fields.delta && fault.delta == 0.0) {
    return SpecError(index, "freshness-shift requires delta != 0");
  }
  return Status::Ok();
}

}  // namespace

const char* FaultKindName(FaultKind k) {
  for (const KindName& kn : kKindNames) {
    if (kn.kind == k) return kn.name;
  }
  return "?";
}

bool FaultKindFromName(const std::string& name, FaultKind* out) {
  for (const KindName& kn : kKindNames) {
    if (name == kn.name) {
      *out = kn.kind;
      return true;
    }
  }
  return false;
}

StatusOr<FaultScenarioSpec> FaultScenarioSpec::FromConfig(
    const Config& config) {
  // Count the dense fault<N>. blocks first: N is dense from 0, and every
  // present block must carry a kind.
  size_t count = 0;
  while (config.Has(FaultPrefix(count) + "kind")) ++count;

  // Reject unknown keys against the full accepted set for the blocks found.
  std::vector<std::string> allowed = {"name", "seed"};
  for (size_t i = 0; i < count; ++i) {
    const std::string p = FaultPrefix(i);
    for (const char* field :
         {"kind", "start_s", "end_s", "items", "rate_hz", "factor", "delta"}) {
      allowed.push_back(p + field);
    }
  }
  Status s = config.ExpectKeys(allowed);
  if (!s.ok()) return s;

  FaultScenarioSpec spec;
  spec.name = config.GetString("name", "scenario");
  spec.seed = static_cast<uint64_t>(config.GetInt("seed", 7));
  s = config.CheckNumbers();
  if (!s.ok()) return s;
  spec.faults.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const std::string p = FaultPrefix(i);
    FaultSpec fault;
    const std::string kind_name = config.GetString(p + "kind");
    if (!FaultKindFromName(kind_name, &fault.kind)) {
      return SpecError(i, "unknown kind '" + kind_name + "'");
    }
    if (!config.Has(p + "start_s") || !config.Has(p + "end_s")) {
      return SpecError(i, "missing start_s/end_s");
    }
    fault.start_s = config.GetDouble(p + "start_s", 0.0);
    fault.end_s = config.GetDouble(p + "end_s", 0.0);
    fault.items = config.GetString(p + "items");
    fault.rate_hz = config.GetDouble(p + "rate_hz", 0.0);
    fault.factor = config.GetDouble(p + "factor", 0.0);
    fault.delta = config.GetDouble(p + "delta", 0.0);
    s = config.CheckNumbers();
    if (!s.ok()) return s;

    // Fields the kind does not consume must be absent.
    const KindFields fields = FieldsOf(fault.kind);
    if (!fields.items && config.Has(p + "items")) {
      return SpecError(i, std::string(FaultKindName(fault.kind)) +
                              " does not take items=");
    }
    if (!fields.rate_hz && config.Has(p + "rate_hz")) {
      return SpecError(i, std::string(FaultKindName(fault.kind)) +
                              " does not take rate_hz=");
    }
    if (!fields.factor && config.Has(p + "factor")) {
      return SpecError(i, std::string(FaultKindName(fault.kind)) +
                              " does not take factor=");
    }
    if (!fields.delta && config.Has(p + "delta")) {
      return SpecError(i, std::string(FaultKindName(fault.kind)) +
                              " does not take delta=");
    }
    s = ValidateFault(fault, i);
    if (!s.ok()) return s;
    spec.faults.push_back(std::move(fault));
  }

  // Scalar kinds (one global engine knob each) must not overlap themselves:
  // the engine restores the baseline value at a stop edge, so two active
  // windows of the same scalar kind would not compose.
  for (FaultKind kind :
       {FaultKind::kServiceSlowdown, FaultKind::kFreshnessShift}) {
    for (size_t i = 0; i < spec.faults.size(); ++i) {
      if (spec.faults[i].kind != kind) continue;
      for (size_t j = i + 1; j < spec.faults.size(); ++j) {
        if (spec.faults[j].kind != kind) continue;
        if (spec.faults[i].start_s < spec.faults[j].end_s &&
            spec.faults[j].start_s < spec.faults[i].end_s) {
          return SpecError(j, std::string("overlaps fault") +
                                  std::to_string(i) + " of scalar kind " +
                                  FaultKindName(kind));
        }
      }
    }
  }
  return spec;
}

StatusOr<FaultScenarioSpec> FaultScenarioSpec::Parse(const std::string& text) {
  auto config = Config::ParseString(text);
  if (!config.ok()) return config.status();
  return FromConfig(*config);
}

StatusOr<FaultScenarioSpec> FaultScenarioSpec::Load(const std::string& path) {
  std::ifstream f(path);
  if (!f.is_open()) {
    return Status(StatusCode::kIoError, "cannot open scenario file " + path);
  }
  std::ostringstream text;
  text << f.rdbuf();
  return Parse(text.str());
}

}  // namespace unitdb
