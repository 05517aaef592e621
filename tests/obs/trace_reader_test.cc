#include "unit/obs/trace_reader.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace unitdb {
namespace {

std::string Format(const TraceEvent& e) {
  char buf[640];
  const size_t n = FormatJsonl(e, buf, sizeof(buf));
  return std::string(buf, n);
}

// Every event kind must survive writer -> reader with all serialized fields
// intact: trace_check re-evaluates the producer's comparisons on the parsed
// values, so lossy parsing would mean spurious violations.
TEST(TraceReaderTest, RoundTripsEveryEventKind) {
  std::vector<TraceEvent> events;

  TraceEvent arrival;
  arrival.time = 100;
  arrival.type = TraceEventType::kQueryArrival;
  arrival.txn = 1;
  arrival.pref_class = 3;
  arrival.deadline = 5000;
  arrival.estimate = 77;
  events.push_back(arrival);

  for (TraceEventType t :
       {TraceEventType::kAdmit, TraceEventType::kPreempt,
        TraceEventType::kLockRestart, TraceEventType::kDeadlineMiss}) {
    TraceEvent e;
    e.time = 101;
    e.type = t;
    e.txn = 1;
    events.push_back(e);
  }

  TraceEvent reject;
  reject.time = 102;
  reject.type = TraceEventType::kReject;
  reject.txn = 2;
  reject.set_reason("deadline");
  events.push_back(reject);

  TraceEvent commit;
  commit.time = 103;
  commit.type = TraceEventType::kCommit;
  commit.txn = 1;
  commit.set_reason("dsf");
  commit.freshness = 1.0 / 3.0;
  commit.freshness_req = 0.9;
  commit.udrop = 2;
  events.push_back(commit);

  TraceEvent up_arrival;
  up_arrival.time = 104;
  up_arrival.type = TraceEventType::kUpdateArrival;
  up_arrival.item = 17;
  events.push_back(up_arrival);

  TraceEvent drop = up_arrival;
  drop.time = 105;
  drop.type = TraceEventType::kUpdateDrop;
  events.push_back(drop);

  TraceEvent apply;
  apply.time = 106;
  apply.type = TraceEventType::kUpdateApply;
  apply.txn = 9;
  apply.item = 17;
  apply.lag = 1234;
  apply.set_reason("periodic");
  events.push_back(apply);

  TraceEvent period;
  period.time = 107;
  period.type = TraceEventType::kPeriodChange;
  period.item = 17;
  period.period_from = 1000;
  period.period_to = 1500;
  period.set_reason("degrade");
  events.push_back(period);

  TraceEvent lbc;
  lbc.time = 108;
  lbc.type = TraceEventType::kLbcSignal;
  lbc.set_reason("loosen-ac");
  lbc.r = 0.375;
  lbc.fm = 0.1;
  lbc.fs = 0.2;
  lbc.utilization = 0.83;
  lbc.resolved = 42;
  lbc.drop_trigger = true;
  lbc.knob_before = 1.21;
  lbc.knob = 1.1;
  events.push_back(lbc);

  for (const TraceEvent& e : events) {
    auto parsed = ParseTraceLine(Format(e));
    ASSERT_TRUE(parsed.ok()) << Format(e) << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(parsed->time, e.time);
    EXPECT_EQ(parsed->type, e.type);
    EXPECT_EQ(parsed->txn, e.txn) << Format(e);
    EXPECT_EQ(parsed->item, e.item) << Format(e);
    EXPECT_EQ(parsed->pref_class, e.pref_class);
    EXPECT_EQ(parsed->deadline, e.deadline);
    EXPECT_EQ(parsed->estimate, e.estimate);
    EXPECT_EQ(parsed->lag, e.lag);
    EXPECT_EQ(parsed->period_from, e.period_from);
    EXPECT_EQ(parsed->period_to, e.period_to);
    EXPECT_STREQ(parsed->reason, e.reason);
    // Doubles round-trip bit-exactly through %.17g.
    EXPECT_EQ(parsed->freshness, e.freshness) << Format(e);
    EXPECT_EQ(parsed->freshness_req, e.freshness_req);
    EXPECT_EQ(parsed->udrop, e.udrop);
    EXPECT_EQ(parsed->r, e.r);
    EXPECT_EQ(parsed->fm, e.fm);
    EXPECT_EQ(parsed->fs, e.fs);
    EXPECT_EQ(parsed->utilization, e.utilization);
    EXPECT_EQ(parsed->resolved, e.resolved);
    EXPECT_EQ(parsed->drop_trigger, e.drop_trigger);
    EXPECT_EQ(parsed->knob_before, e.knob_before);
    EXPECT_EQ(parsed->knob, e.knob);
  }
}

// Writer and reader share one schema: every event type, shard-tagged or
// not, survives format -> parse -> format byte for byte. Every field holds
// a distinct non-default value, so a key read into the wrong member
// changes the second line.
TEST(TraceReaderTest, EveryTypeRoundTripsByteForByte) {
  TraceEvent e;
  e.time = 1001;
  e.txn = 1002;
  e.item = 1003;
  e.pref_class = 4;
  e.deadline = 1005;
  e.estimate = 1006;
  e.lag = 1007;
  e.period_from = 1008;
  e.period_to = 1009;
  e.set_reason("preventive-degrade");
  e.freshness = 0.1;
  e.freshness_req = 0.2;
  e.udrop = 1010;
  e.r = 0.3;
  e.fm = 0.4;
  e.fs = 0.5;
  e.utilization = 0.6;
  e.resolved = 1011;
  e.drop_trigger = true;
  e.knob_before = 0.7;
  e.knob = 0.8;
  e.magnitude = 12.5;  // the shed watermark writes its whole part
  e.session = 1013;
  e.request = 1014;
  int types = 0;
  for (int i = 0; std::string(TraceEventTypeName(
                      static_cast<TraceEventType>(i))) != "?";
       ++i) {
    e.type = static_cast<TraceEventType>(i);
    ++types;
    for (int32_t shard : {-1, 2}) {
      e.shard = shard;
      const std::string line = Format(e);
      auto parsed = ParseTraceLine(line);
      ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status().ToString();
      EXPECT_EQ(Format(*parsed), line);
    }
  }
  EXPECT_EQ(types, 19);
}

TEST(TraceReaderTest, RejectsGarbage) {
  EXPECT_FALSE(ParseTraceLine("not json").ok());
  EXPECT_FALSE(ParseTraceLine("{\"t\":1").ok());
  EXPECT_FALSE(ParseTraceLine("").ok());
}

TEST(TraceReaderTest, RejectsUnknownKey) {
  // Unknown keys are schema drift, not extensibility.
  auto r = ParseTraceLine("{\"t\":1,\"ev\":\"admit\",\"txn\":1,\"zzz\":2}");
  EXPECT_FALSE(r.ok());
}

TEST(TraceReaderTest, RejectsUnknownOrMissingEventType) {
  EXPECT_FALSE(ParseTraceLine("{\"t\":1,\"ev\":\"warp\",\"txn\":1}").ok());
  EXPECT_FALSE(ParseTraceLine("{\"t\":1,\"txn\":1}").ok());
}

TEST(TraceReaderTest, ReadTraceReportsLineNumber) {
  std::istringstream in(
      "{\"t\":1,\"ev\":\"admit\",\"txn\":1}\n"
      "\n"
      "{\"t\":2,\"ev\":\"bogus\",\"txn\":1}\n");
  auto r = ReadTrace(in);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("line 3"), std::string::npos)
      << r.status().ToString();
}

TEST(TraceReaderTest, ReadTraceSkipsBlankLines) {
  std::istringstream in(
      "{\"t\":1,\"ev\":\"admit\",\"txn\":1}\n"
      "\n"
      "{\"t\":2,\"ev\":\"deadline-miss\",\"txn\":1}\n");
  auto r = ReadTrace(in);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 2u);
}

TEST(TraceReaderTest, ReadTraceFileFailsOnMissingFile) {
  EXPECT_FALSE(ReadTraceFile("/nonexistent/trace.jsonl").ok());
}

}  // namespace
}  // namespace unitdb
