#include "unit/obs/trace_sink.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

// Allocation counter: every (unaligned) global new in this test binary bumps
// g_allocs. The JSONL formatter advertises "allocation-free per event";
// FormatJsonlNeverAllocates holds it to that. Sanitizer builds intercept
// global new/delete themselves — replacing them there mismatches the
// sanitizer's allocator, so the counter (and the assertions built on it)
// compiles away.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define UNIT_COUNTS_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define UNIT_COUNTS_ALLOCS 0
#endif
#endif
#ifndef UNIT_COUNTS_ALLOCS
#define UNIT_COUNTS_ALLOCS 1
#endif

namespace {
std::atomic<int64_t> g_allocs{0};
}  // namespace

#if UNIT_COUNTS_ALLOCS
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace unitdb {
namespace {

TraceEvent Admit(SimTime t, TxnId txn) {
  TraceEvent e;
  e.time = t;
  e.type = TraceEventType::kAdmit;
  e.txn = txn;
  return e;
}

TEST(JsonlTraceSinkTest, GoldenLines) {
  std::ostringstream out;
  JsonlTraceSink sink(out);

  TraceEvent arrival;
  arrival.time = 5;
  arrival.type = TraceEventType::kQueryArrival;
  arrival.txn = 1;
  arrival.pref_class = 0;
  arrival.deadline = 900;
  arrival.estimate = 40;
  sink.Emit(arrival);
  sink.Emit(Admit(5, 1));
  sink.Flush();

  const std::string expected =
      "{\"t\":5,\"ev\":\"query-arrival\",\"txn\":1,\"class\":0,"
      "\"deadline\":900,\"est\":40}\n"
      "{\"t\":5,\"ev\":\"admit\",\"txn\":1}\n";
  EXPECT_EQ(out.str(), expected);
  EXPECT_EQ(sink.emitted(), 2);
}

TEST(JsonlTraceSinkTest, OpenFailsOnBadPath) {
  auto sink = JsonlTraceSink::Open("/nonexistent-dir/trace.jsonl");
  EXPECT_FALSE(sink.ok());
}

TEST(KeepingSinkTest, KeepsTheListedTypesAndForwardsEverything) {
  std::ostringstream out;
  JsonlTraceSink file(out);
  KeepingSink keep({TraceEventType::kReject}, &file);
  TraceEvent reject = Admit(2, 1);
  reject.type = TraceEventType::kReject;
  keep.Emit(Admit(1, 0));
  keep.Emit(reject);
  keep.Emit(Admit(3, 2));
  ASSERT_EQ(keep.kept.size(), 1u);
  EXPECT_EQ(keep.kept[0].time, 2);
  EXPECT_EQ(file.emitted(), 3);
}

TEST(KeepingSinkTest, KeepsEveryTypeWhenNoneIsListed) {
  KeepingSink keep;
  for (int i = 0; i < 3; ++i) keep.Emit(Admit(i, i));
  ASSERT_EQ(keep.kept.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(keep.kept[i].time, static_cast<SimTime>(i));
  }
}

TEST(TraceEventFormatTest, FormatJsonlNeverAllocates) {
  TraceEvent e;
  e.type = TraceEventType::kLbcSignal;
  e.set_reason("degrade+tighten");
  e.r = 0.125;
  e.fm = 0.5;
  e.fs = 0.25;
  e.utilization = 0.75;
  e.resolved = 100;
  e.knob_before = 1.0;
  e.knob = 1.1;
  char buf[640];
  const int64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    e.time = i;
    FormatJsonl(e, buf, sizeof(buf));
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before);
}

}  // namespace
}  // namespace unitdb
