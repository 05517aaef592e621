#include "unit/obs/trace_event.h"

#include <cinttypes>
#include <cstdio>
#include <initializer_list>
#include <iterator>

namespace unitdb {

namespace {

using enum TraceKey;

/// One event type's wire name and the keys it carries after the time, the
/// type and the shard, in emission order.
struct TypeSchema {
  TraceEventType type;
  const char* name;
  std::initializer_list<TraceKey> keys;
};

/// Indexed by TraceEventType.
constexpr TypeSchema kTypes[] = {
    {TraceEventType::kQueryArrival, "query-arrival",
     {kTxn, kClass, kDeadline, kEst}},
    {TraceEventType::kAdmit, "admit", {kTxn}},
    {TraceEventType::kReject, "reject", {kTxn, kReason}},
    {TraceEventType::kPreempt, "preempt", {kTxn}},
    {TraceEventType::kLockRestart, "lock-restart", {kTxn}},
    {TraceEventType::kCommit, "commit",
     {kTxn, kOutcome, kFreshness, kFreq, kUdrop}},
    {TraceEventType::kDeadlineMiss, "deadline-miss", {kTxn}},
    {TraceEventType::kUpdateArrival, "update-arrival", {kItem}},
    {TraceEventType::kUpdateDrop, "update-drop", {kItem}},
    {TraceEventType::kUpdateApply, "update-apply",
     {kTxn, kItem, kLag, kReason}},
    {TraceEventType::kPeriodChange, "period-change",
     {kItem, kFrom, kTo, kReason}},
    {TraceEventType::kLbcSignal, "lbc",
     {kSignal, kR, kFm, kFs, kUtil, kResolved, kDrop, kKnob0, kKnob}},
    {TraceEventType::kFaultStart, "fault-start",
     {kFault, kKind, kItem, kItems, kMag}},
    {TraceEventType::kFaultStop, "fault-stop",
     {kFault, kKind, kItem, kItems, kMag}},
    {TraceEventType::kSessionRetry, "session-retry",
     {kTxn, kSession, kRequest, kAttempt, kDelay}},
    {TraceEventType::kSessionAbandon, "session-abandon",
     {kTxn, kSession, kRequest, kAttempt}},
    {TraceEventType::kShed, "shed", {kTxn, kDepth, kWatermark}},
    // `item` is the staleness-dominant read-set item (the arg max of Udrop,
    // whose history the checker verifies `udrop` against), and `capacity`
    // the active cache capacity, so a hit emitted with the cache off is
    // checkable as a violation.
    {TraceEventType::kCacheHit, "cache-hit",
     {kTxn, kOutcome, kFreshness, kFreq, kUdrop, kItem, kCapacity}},
    {TraceEventType::kCacheInvalidate, "cache-invalidate", {kItem, kTxn}},
};

constexpr bool InTypeOrder() {
  for (size_t i = 0; i < std::size(kTypes); ++i) {
    if (static_cast<size_t>(kTypes[i].type) != i) return false;
  }
  return true;
}
static_assert(InTypeOrder(), "kTypes must be indexed by TraceEventType");

const TypeSchema* SchemaOf(TraceEventType t) {
  const auto i = static_cast<size_t>(t);
  return i < std::size(kTypes) ? &kTypes[i] : nullptr;
}

constexpr const char* kKeyNames[] = {
#define UNIT_TRACE_KEY_NAME(key, wire, member, encoding) wire,
    UNIT_TRACE_KEYS(UNIT_TRACE_KEY_NAME)
#undef UNIT_TRACE_KEY_NAME
};

}  // namespace

const char* TraceEventTypeName(TraceEventType t) {
  const TypeSchema* s = SchemaOf(t);
  return s != nullptr ? s->name : "?";
}

bool TraceEventTypeFromName(const char* name, TraceEventType* out) {
  for (const TypeSchema& s : kTypes) {
    if (std::strcmp(s.name, name) == 0) {
      *out = s.type;
      return true;
    }
  }
  return false;
}

const char* TraceKeyName(TraceKey k) {
  return kKeyNames[static_cast<size_t>(k)];
}

bool TraceKeyFromName(const char* name, TraceKey* out) {
  for (size_t i = 0; i < std::size(kKeyNames); ++i) {
    if (std::strcmp(kKeyNames[i], name) == 0) {
      *out = static_cast<TraceKey>(i);
      return true;
    }
  }
  return false;
}

namespace {

/// Bounded appender over the caller's buffer; silently truncates at cap - 1
/// (well-formed events never get close).
class Appender {
 public:
  Appender(char* buf, size_t cap) : buf_(buf), cap_(cap) {}

  void Raw(const char* s) {
    while (*s != '\0' && len_ + 1 < cap_) buf_[len_++] = *s++;
  }

  /// Writes key `k` of `e` by its encoding.
  void Put(TraceKey k, const TraceEvent& e) {
    Raw(len_ == 1 ? "\"" : ",\"");  // len_ == 1: only '{' written so far
    Raw(TraceKeyName(k));
    Raw("\":");
    VisitTraceKey(k, e, [this](const auto& v, auto encoding) {
      constexpr TraceEncoding kEncoding = decltype(encoding)::value;
      if constexpr (kEncoding == TraceEncoding::kInt) {
        Int(v);
      } else if constexpr (kEncoding == TraceEncoding::kDouble) {
        char tmp[40];
        std::snprintf(tmp, sizeof(tmp), "%.17g", v);
        Raw(tmp);
      } else if constexpr (kEncoding == TraceEncoding::kWhole) {
        Int(static_cast<int64_t>(v));
      } else if constexpr (kEncoding == TraceEncoding::kFlag) {
        Int(v ? 1 : 0);
      } else if constexpr (kEncoding == TraceEncoding::kString) {
        Quoted(v);
      } else {
        Quoted(TraceEventTypeName(v));
      }
    });
  }

  size_t Finish() {
    Raw("}");
    buf_[len_] = '\0';
    return len_;
  }

 private:
  void Int(int64_t v) {
    char tmp[32];
    std::snprintf(tmp, sizeof(tmp), "%" PRId64, v);
    Raw(tmp);
  }

  void Quoted(const char* v) {
    Raw("\"");
    Raw(v);
    Raw("\"");
  }

  char* buf_;
  size_t cap_;
  size_t len_ = 0;
};

}  // namespace

size_t FormatJsonl(const TraceEvent& e, char* buf, size_t cap) {
  Appender a(buf, cap);
  a.Raw("{");
  a.Put(kTime, e);
  a.Put(kEvent, e);
  // Only shard-tagged events carry their shard, so monolithic goldens (and
  // the monolithic trace_check corpus) stay byte-identical.
  if (e.shard >= 0) a.Put(kShard, e);
  if (const TypeSchema* s = SchemaOf(e.type); s != nullptr) {
    for (TraceKey k : s->keys) a.Put(k, e);
  }
  return a.Finish();
}

}  // namespace unitdb
