#include "unit/workload/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "unit/workload/query_source.h"
#include "unit/workload/query_trace.h"
#include "unit/workload/update_trace.h"

namespace unitdb {
namespace {

Workload SampleWorkload() {
  QueryTraceParams qp;
  qp.num_items = 32;
  qp.duration = SecondsToSim(60.0);
  qp.seed = 5;
  auto w = GenerateQueryTrace(qp);
  EXPECT_TRUE(w.ok());
  UpdateTraceParams up;
  up.seed = 6;
  EXPECT_TRUE(GenerateUpdateTrace(up, *w).ok());
  return *w;
}

void ExpectEqualWorkloads(const Workload& a, const Workload& b) {
  EXPECT_EQ(a.num_items, b.num_items);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.query_trace_name, b.query_trace_name);
  EXPECT_EQ(a.update_trace_name, b.update_trace_name);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].id, b.queries[i].id);
    EXPECT_EQ(a.queries[i].arrival, b.queries[i].arrival);
    EXPECT_EQ(a.queries[i].exec, b.queries[i].exec);
    EXPECT_EQ(a.queries[i].relative_deadline, b.queries[i].relative_deadline);
    EXPECT_DOUBLE_EQ(a.queries[i].freshness_req, b.queries[i].freshness_req);
    EXPECT_EQ(a.queries[i].items, b.queries[i].items);
  }
  ASSERT_EQ(a.updates.size(), b.updates.size());
  for (size_t i = 0; i < a.updates.size(); ++i) {
    EXPECT_EQ(a.updates[i].item, b.updates[i].item);
    EXPECT_EQ(a.updates[i].ideal_period, b.updates[i].ideal_period);
    EXPECT_EQ(a.updates[i].update_exec, b.updates[i].update_exec);
    EXPECT_EQ(a.updates[i].phase, b.updates[i].phase);
  }
}

TEST(TraceIoTest, CsvRoundTripIsLossless) {
  Workload w = SampleWorkload();
  auto back = WorkloadFromCsv(WorkloadToCsv(w));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectEqualWorkloads(w, *back);
}

TEST(TraceIoTest, FileRoundTrip) {
  Workload w = SampleWorkload();
  const std::string path = ::testing::TempDir() + "/unitdb_trace_test.csv";
  ASSERT_TRUE(SaveWorkload(w, path).ok());
  auto back = LoadWorkload(path);
  ASSERT_TRUE(back.ok());
  ExpectEqualWorkloads(w, *back);
  std::remove(path.c_str());
}

// Export reads the trace through its cursor: a streamed workload writes
// the Q and U rows of its materialized twin.
TEST(TraceIoTest, StreamedWorkloadWritesItsMaterializedTwinsRows) {
  QueryTraceParams qp;
  qp.num_items = 32;
  qp.duration = SecondsToSim(60.0);
  qp.seed = 5;
  auto materialized = GenerateQueryTrace(qp);
  auto streamed = MakeStreamingWorkload(qp);
  ASSERT_TRUE(materialized.ok() && streamed.ok());
  UpdateTraceParams up;
  up.seed = 6;
  ASSERT_TRUE(GenerateUpdateTrace(up, *materialized).ok());
  ASSERT_TRUE(GenerateUpdateTrace(up, *streamed).ok());

  const auto data_rows = [](const std::string& csv) {
    std::vector<std::string> rows;
    std::istringstream in(csv);
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("Q,", 0) == 0 || line.rfind("U,", 0) == 0) {
        rows.push_back(line);
      }
    }
    return rows;
  };
  const std::vector<std::string> want = data_rows(WorkloadToCsv(*materialized));
  EXPECT_EQ(want.size(),
            materialized->queries.size() + materialized->updates.size());
  EXPECT_EQ(data_rows(WorkloadToCsv(*streamed)), want);
  auto back = WorkloadFromCsv(WorkloadToCsv(*streamed));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->QueryCount(), streamed->QueryCount());
}

TEST(TraceIoTest, MissingMetaRowFails) {
  auto w = WorkloadFromCsv("Q,0,0,1000,2000,0.9,1\n");
  EXPECT_FALSE(w.ok());
}

TEST(TraceIoTest, UnknownTagFails) {
  auto w = WorkloadFromCsv("M,4,1000000,a,b\nZ,1,2\n");
  EXPECT_FALSE(w.ok());
}

TEST(TraceIoTest, MalformedQueryRowFails) {
  EXPECT_FALSE(WorkloadFromCsv("M,4,1000000,a,b\nQ,0,0,1000\n").ok());
  EXPECT_FALSE(
      WorkloadFromCsv("M,4,1000000,a,b\nQ,x,0,1000,2000,0.9,1\n").ok());
  EXPECT_FALSE(
      WorkloadFromCsv("M,4,1000000,a,b\nQ,0,0,1000,2000,0.9,\n").ok());
  // A decreasing arrival: the engine replays Q rows in order.
  auto out_of_order = WorkloadFromCsv(
      "M,4,1000000,a,b\nQ,0,5,1000,2000,0.9,1\nQ,1,9,1000,2000,0.9,2\n"
      "Q,2,7,1000,2000,0.9,3\n");
  ASSERT_FALSE(out_of_order.ok());
  EXPECT_EQ(out_of_order.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(out_of_order.status().message().find("Q row 2 (id 2)"),
            std::string::npos)
      << out_of_order.status().ToString();
  // An item the database does not have, whichever row comes first.
  for (const char* doc :
       {"M,4,1000000,a,b\nQ,0,5,1000,2000,0.9,1\nQ,1,9,1000,2000,0.9,0;4000\n",
        "Q,0,5,1000,2000,0.9,1\nQ,1,9,1000,2000,0.9,-1\nM,4,1000000,a,b\n"}) {
    auto w = WorkloadFromCsv(doc);
    ASSERT_FALSE(w.ok()) << doc;
    EXPECT_EQ(w.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(w.status().message().find("Q row 1 (id 1)"), std::string::npos)
        << w.status().ToString();
  }
  EXPECT_FALSE(
      WorkloadFromCsv("M,4,1000000,a,b\nQ,0,0,1000,2000,0.9,4294967296\n")
          .ok());
}

TEST(TraceIoTest, MalformedUpdateRowFails) {
  EXPECT_FALSE(WorkloadFromCsv("M,4,1000000,a,b\nU,1,2\n").ok());
  EXPECT_FALSE(WorkloadFromCsv("M,4,1000000,a,b\nU,1,abc,3,4\n").ok());
  // Rows the engine's database would refuse as sources: an item outside
  // [0, num_items), a phase equal to the period, a second row for an item.
  for (const char* rows :
       {"U,5000,500000,7000,100\n", "U,2,500000,7000,500000\n",
        "U,2,500000,7000,100\nU,2,400000,7000,100\n"}) {
    auto w = WorkloadFromCsv(std::string("M,4,1000000,a,b\n") + rows);
    ASSERT_FALSE(w.ok()) << rows;
    EXPECT_EQ(w.status().code(), StatusCode::kInvalidArgument) << rows;
    EXPECT_NE(w.status().message().find("item "), std::string::npos)
        << w.status().ToString();
  }
}

TEST(TraceIoTest, MalformedMetaRowFails) {
  for (const char* meta : {"M,0,1000000,a,b\n", "M,-3,1000000,a,b\n",
                           "M,4294967297,1000000,a,b\n"}) {
    auto w = WorkloadFromCsv(meta);
    ASSERT_FALSE(w.ok()) << meta;
    EXPECT_EQ(w.status().code(), StatusCode::kInvalidArgument) << meta;
    EXPECT_NE(w.status().message().find("num_items"), std::string::npos)
        << w.status().ToString();
  }
}

TEST(TraceIoTest, ParsesMinimalDocument) {
  auto w = WorkloadFromCsv(
      "M,4,1000000,cello-like,med-unif\n"
      "Q,0,5,1000,2000,0.9,1;3\n"
      "U,2,500000,7000,100\n");
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->num_items, 4);
  EXPECT_EQ(w->duration, 1000000);
  ASSERT_EQ(w->queries.size(), 1u);
  EXPECT_EQ(w->queries[0].items, (std::vector<ItemId>{1, 3}));
  ASSERT_EQ(w->updates.size(), 1u);
  EXPECT_EQ(w->updates[0].item, 2);
  EXPECT_EQ(w->updates[0].phase, 100);
}

TEST(TraceIoTest, NamesWithCommasSurviveQuoting) {
  Workload w;
  w.num_items = 1;
  w.duration = 1;
  w.query_trace_name = "weird,name";
  w.update_trace_name = "with \"quotes\"";
  auto back = WorkloadFromCsv(WorkloadToCsv(w));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->query_trace_name, "weird,name");
  EXPECT_EQ(back->update_trace_name, "with \"quotes\"");
}

TEST(TraceIoTest, WorkloadAccountingHelpers) {
  Workload w;
  w.num_items = 2;
  w.duration = SecondsToSim(10.0);
  ItemUpdateSpec u;
  u.item = 0;
  u.ideal_period = SecondsToSim(1.0);
  u.update_exec = MillisToSim(100.0);
  u.phase = 0;
  w.updates.push_back(u);
  // Generations at t=0..9: ten updates, each 0.1s -> 10% utilization.
  EXPECT_EQ(w.TotalSourceUpdates(), 10);
  EXPECT_NEAR(w.UpdateUtilization(), 0.10, 1e-9);
  EXPECT_EQ(w.SourceUpdateCounts()[0], 10);
  EXPECT_EQ(w.SourceUpdateCounts()[1], 0);
}

}  // namespace
}  // namespace unitdb
