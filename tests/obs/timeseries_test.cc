#include "unit/obs/timeseries.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace unitdb {
namespace {

WindowSample Sample(double t_s) {
  WindowSample s;
  s.t_s = t_s;
  s.window.submitted = 10;
  s.window.success = 6;
  s.window.rejected = 2;
  s.window.dmf = 1;
  s.window.dsf = 1;
  s.utilization = 0.5;
  s.ready_queries = 3;
  s.ready_updates = 1;
  s.udrop_p50 = 0.0;
  s.udrop_p90 = 2.0;
  s.udrop_max = 5;
  s.admission_knob = 1.1;
  s.degraded_items = 4;
  return s;
}

TEST(TimeSeriesRecorderTest, ColumnNamesAreStable) {
  const auto& cols = TimeSeriesRecorder::ColumnNames();
  ASSERT_EQ(cols.size(), 23u);
  EXPECT_EQ(cols.front(), "t_s");
  EXPECT_EQ(cols[6], "usm_s");
  EXPECT_EQ(cols[17], "degraded_items");
  EXPECT_EQ(cols[18], "retries");
  EXPECT_EQ(cols[19], "abandons");
  EXPECT_EQ(cols[20], "shed");
  EXPECT_EQ(cols[21], "cache_hits");
  EXPECT_EQ(cols.back(), "cache_inval");
}

TEST(TimeSeriesRecorderTest, RecordDerivesTheUsmDecomposition) {
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  TimeSeriesRecorder rec(weights);
  rec.Record(Sample(1.0));
  ASSERT_EQ(rec.samples().size(), 1u);
  const UsmBreakdown expected =
      UsmDecompose(rec.samples()[0].window, weights);
  EXPECT_DOUBLE_EQ(rec.samples()[0].usm.s, expected.s);
  EXPECT_DOUBLE_EQ(rec.samples()[0].usm.r, expected.r);
  EXPECT_DOUBLE_EQ(rec.samples()[0].usm.fm, expected.fm);
  EXPECT_DOUBLE_EQ(rec.samples()[0].usm.fs, expected.fs);
  EXPECT_GT(rec.samples()[0].usm.s, 0.0);
}

TEST(TimeSeriesRecorderTest, CsvHasHeaderAndOneRowPerSample) {
  TimeSeriesRecorder rec;
  rec.Record(Sample(1.0));
  rec.Record(Sample(2.0));
  const std::string csv = rec.ToCsv();
  std::istringstream in(csv);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("t_s,submitted,", 0), 0u) << line;
  int rows = 0;
  while (std::getline(in, line)) {
    ++rows;
    // Every row has exactly as many comma-separated cells as columns.
    size_t commas = 0;
    for (char c : line) commas += (c == ',');
    EXPECT_EQ(commas + 1, TimeSeriesRecorder::ColumnNames().size()) << line;
  }
  EXPECT_EQ(rows, 2);
}

// Pins the writer byte for byte: the full header, then one row in which
// every column is non-zero, so a dropped, duplicated or reordered cell shows.
TEST(TimeSeriesRecorderTest, CsvHeaderAndRowAreByteStable) {
  TimeSeriesRecorder rec(UsmWeights{1.0, 0.5, 1.0, 0.5});
  WindowSample s = Sample(1.5);
  s.utilization = 0.75;
  s.udrop_p50 = 1.0;
  s.retries = 7;
  s.abandons = 2;
  s.shed = 3;
  s.cache_hits = 9;
  s.cache_invalidations = 8;
  rec.Record(s);
  EXPECT_EQ(rec.ToCsv(),
            "t_s,submitted,success,rejected,dmf,dsf,usm_s,usm_r,usm_fm,"
            "usm_fs,utilization,ready_queries,ready_updates,udrop_p50,"
            "udrop_p90,udrop_max,c_flex,degraded_items,retries,abandons,"
            "shed,cache_hits,cache_inval\n"
            "1.5,10,6,2,1,1,0.59999999999999998,0.10000000000000001,"
            "0.10000000000000001,0.050000000000000003,0.75,3,1,1,2,5,"
            "1.1000000000000001,4,7,2,3,9,8\n");
}

TEST(TimeSeriesRecorderTest, WritesCsvFile) {
  TimeSeriesRecorder rec;
  rec.Record(Sample(1.0));
  const std::string csv_path = ::testing::TempDir() + "/obs_series.csv";
  ASSERT_TRUE(rec.WriteCsv(csv_path).ok());
  std::ifstream csv(csv_path);
  std::stringstream buf;
  buf << csv.rdbuf();
  EXPECT_EQ(buf.str(), rec.ToCsv());
  std::remove(csv_path.c_str());
}

TEST(TimeSeriesRecorderTest, WriteFailsOnBadPath) {
  TimeSeriesRecorder rec;
  rec.Record(Sample(1.0));
  EXPECT_FALSE(rec.WriteCsv("/nonexistent-dir/series.csv").ok());
}

}  // namespace
}  // namespace unitdb
