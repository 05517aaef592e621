#ifndef UNIT_OBS_TRACE_EVENT_H_
#define UNIT_OBS_TRACE_EVENT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "unit/common/types.h"

namespace unitdb {

/// Typed events the engine and its controllers emit when a TraceSink is
/// attached (EngineParams::trace). One flat POD struct carries every event
/// kind so sinks never allocate per event; unused fields keep their
/// defaults and are omitted from the serialized form.
enum class TraceEventType : uint8_t {
  kQueryArrival = 0,  ///< user query entered the system
  kAdmit,             ///< admission control accepted the query
  kReject,            ///< query turned away (reason: deadline / usm / policy)
  kPreempt,           ///< running transaction displaced by a higher priority
  kLockRestart,       ///< 2PL-HP restart of a lock-holding query
  kCommit,            ///< query committed (outcome: success / dsf)
  kDeadlineMiss,      ///< admitted query aborted at its firm deadline (DMF)
  kUpdateArrival,     ///< update message arrived from the source
  kUpdateDrop,        ///< arrival shed by update frequency modulation
  kUpdateApply,       ///< update transaction committed (value installed)
  kPeriodChange,      ///< modulation stretched/restored an item's period
  kLbcSignal,         ///< LBC adaptive-allocation evaluation + its signal
  kFaultStart,        ///< a fault-schedule disturbance window opened
  kFaultStop,         ///< the window closed (effects restored)
  kSessionRetry,      ///< a user session scheduled a resubmission
  kSessionAbandon,    ///< a user session gave up on a request
  kShed,              ///< ready query evicted by overload shedding
  kCacheHit,          ///< query answered from the result cache on arrival
  kCacheInvalidate,   ///< cache entry erased by an update install
};

/// Stable wire name of an event type ("query-arrival", "admit", ...).
const char* TraceEventTypeName(TraceEventType t);

/// Inverse of TraceEventTypeName; returns false on an unknown name.
bool TraceEventTypeFromName(const char* name, TraceEventType* out);

/// One trace record. POD (fixed-size reason buffer, no heap members) so the
/// JSONL formatter is allocation-free per event.
struct TraceEvent {
  SimTime time = 0;
  TraceEventType type = TraceEventType::kQueryArrival;
  TxnId txn = kInvalidTxn;
  ItemId item = kInvalidItem;
  int pref_class = 0;

  SimTime deadline = 0;          ///< absolute deadline (query-arrival)
  SimDuration estimate = 0;      ///< admission estimate qe (query-arrival)
  SimDuration lag = 0;           ///< arrival-to-commit latency (update-apply)
  SimDuration period_from = 0;   ///< period before a change (period-change)
  SimDuration period_to = 0;     ///< period after a change (period-change)

  /// Reject reason / commit outcome / period-change cause / LBC signal name.
  char reason[24] = {0};

  double freshness = -1.0;       ///< observed read-set freshness (commit)
  double freshness_req = -1.0;   ///< required freshness (commit)
  int64_t udrop = -1;            ///< max Udrop over the read set (commit)

  // LBC evaluation fields (kLbcSignal): post-floor penalty-weighted failure
  // ratios the Fig. 2 rule chose between, the utilization EWMA the decision
  // saw, the cohort size, and the admission knob before/after the signal.
  double r = 0.0, fm = 0.0, fs = 0.0;
  double utilization = 0.0;
  int64_t resolved = 0;
  bool drop_trigger = false;
  double knob_before = 0.0, knob = 0.0;

  // Fault edges (kFaultStart / kFaultStop): txn carries the fault index,
  // reason the kind name, item the first affected item (kInvalidItem for
  // global kinds), resolved the affected-item count, and magnitude the
  // kind's scalar (factor / delta / rate_hz; 0 for outages).
  double magnitude = 0.0;

  /// Shard that emitted the event, set as RunSharded writes its traces
  /// (shard/sharded.h); -1 in a monolithic run, and the field is omitted
  /// from the serialized form so non-sharded goldens are unchanged.
  int32_t shard = -1;

  // Closed-loop session fields (kSessionRetry / kSessionAbandon): the home
  // session and the trace-level request id the retried/abandoned attempt
  // belonged to. `resolved` carries the attempt number, and `lag` the retry
  // delay (kSessionRetry only). Emitted only for session event kinds, so
  // pre-session goldens are unchanged.
  int64_t session = -1;
  TxnId request = kInvalidTxn;

  void set_reason(const char* s) {
    // Truncation to the fixed buffer is deliberate; memcpy with an explicit
    // clamped length (rather than strncpy) keeps -Wstringop-truncation quiet.
    size_t n = s == nullptr ? 0 : std::strlen(s);
    if (n > sizeof(reason) - 1) n = sizeof(reason) - 1;
    if (n > 0) std::memcpy(reason, s, n);
    reason[n] = '\0';
  }
};

/// How a wire key's value is written, and read back.
enum class TraceEncoding : uint8_t {
  kInt,     ///< an integer member, in decimal
  kDouble,  ///< a double member, as %.17g (round-trips bit-exactly)
  kWhole,   ///< a double member holding a whole number, as an integer
  kFlag,    ///< a bool member, as 0 or 1
  kString,  ///< the reason buffer, quoted (fixed identifiers: no escapes)
  kType,    ///< the event type, quoted as its TraceEventTypeName
};

/// TraceEvent's JSONL schema, X(key, wire, member, encoding): every wire key
/// once, with the TraceEvent member it carries and how it is encoded. The
/// writer (FormatJsonl) and the reader (ParseTraceLine) both dispatch
/// through VisitTraceKey, so the reader accepts exactly the keys the writer
/// emits. Several keys may share a member: the reason buffer carries the
/// reject reason, commit outcome, LBC signal and fault kind, and `resolved`
/// the cohort, affected-item count, attempt, shed depth or cache capacity,
/// as the event type's key list (trace_event.cc) decides.
#define UNIT_TRACE_KEYS(X)                           \
  X(kTime, "t", time, kInt)                          \
  X(kEvent, "ev", type, kType)                       \
  X(kShard, "shard", shard, kInt)                    \
  X(kTxn, "txn", txn, kInt)                          \
  X(kClass, "class", pref_class, kInt)               \
  X(kDeadline, "deadline", deadline, kInt)           \
  X(kEst, "est", estimate, kInt)                     \
  X(kReason, "reason", reason, kString)              \
  X(kOutcome, "outcome", reason, kString)            \
  X(kFreshness, "freshness", freshness, kDouble)     \
  X(kFreq, "freq", freshness_req, kDouble)           \
  X(kUdrop, "udrop", udrop, kInt)                    \
  X(kItem, "item", item, kInt)                       \
  X(kLag, "lag", lag, kInt)                          \
  X(kFrom, "from", period_from, kInt)                \
  X(kTo, "to", period_to, kInt)                      \
  X(kSignal, "signal", reason, kString)              \
  X(kR, "r", r, kDouble)                             \
  X(kFm, "fm", fm, kDouble)                          \
  X(kFs, "fs", fs, kDouble)                          \
  X(kUtil, "util", utilization, kDouble)             \
  X(kResolved, "resolved", resolved, kInt)           \
  X(kDrop, "drop", drop_trigger, kFlag)              \
  X(kKnob0, "knob0", knob_before, kDouble)           \
  X(kKnob, "knob", knob, kDouble)                    \
  X(kFault, "fault", txn, kInt)                      \
  X(kKind, "kind", reason, kString)                  \
  X(kItems, "items", resolved, kInt)                 \
  X(kMag, "mag", magnitude, kDouble)                 \
  X(kSession, "session", session, kInt)              \
  X(kRequest, "request", request, kInt)              \
  X(kAttempt, "attempt", resolved, kInt)             \
  X(kDelay, "delay", lag, kInt)                      \
  X(kDepth, "depth", resolved, kInt)                 \
  X(kWatermark, "watermark", magnitude, kWhole)      \
  X(kCapacity, "capacity", resolved, kInt)

/// One enumerator per UNIT_TRACE_KEYS row, in table order.
enum class TraceKey : uint8_t {
#define UNIT_TRACE_KEY_ENUM(key, wire, member, encoding) key,
  UNIT_TRACE_KEYS(UNIT_TRACE_KEY_ENUM)
#undef UNIT_TRACE_KEY_ENUM
};

/// Wire string of a key.
const char* TraceKeyName(TraceKey k);

/// Inverse of TraceKeyName; returns false on an unknown key.
bool TraceKeyFromName(const char* name, TraceKey* out);

/// Calls `f(member, encoding)` on the member of `e` that key `k` carries
/// (const when `e` is), with `encoding` its
/// std::integral_constant<TraceEncoding, ...>.
template <typename Event, typename F>
void VisitTraceKey(TraceKey k, Event& e, F&& f) {
  switch (k) {
#define UNIT_TRACE_KEY_CASE(key, wire, member, encoding)                 \
  case TraceKey::key:                                                   \
    f(e.member,                                                         \
      std::integral_constant<TraceEncoding, TraceEncoding::encoding>{}); \
    return;
    UNIT_TRACE_KEYS(UNIT_TRACE_KEY_CASE)
#undef UNIT_TRACE_KEY_CASE
  }
}

/// Serializes one event as a single JSON line (no trailing newline) into
/// `buf`; returns the number of characters written (truncated at cap - 1,
/// which no well-formed event reaches): the time, the type, the shard when
/// the event carries one (>= 0), then the type's own keys in its key-list
/// order. Doubles use %.17g so parsed values round-trip bit-exactly —
/// trace_check re-evaluates producer comparisons.
size_t FormatJsonl(const TraceEvent& e, char* buf, size_t cap);

}  // namespace unitdb

#endif  // UNIT_OBS_TRACE_EVENT_H_
