#include "unit/common/csv.h"

#include <gtest/gtest.h>

#include <string>

namespace unitdb {
namespace {

TEST(CsvWriterTest, SimpleRows) {
  CsvWriter w;
  w.AddRow({"a", "b", "c"});
  w.AddRow({"1", "2", "3"});
  EXPECT_EQ(w.ToString(), "a,b,c\n1,2,3\n");
  EXPECT_EQ(w.rows(), 2u);
}

TEST(CsvWriterTest, QuotesSpecialCharacters) {
  CsvWriter w;
  w.AddRow({"has,comma", "has\"quote", "has\nnewline", "plain"});
  EXPECT_EQ(w.ToString(),
            "\"has,comma\",\"has\"\"quote\",\"has\nnewline\",plain\n");
}

TEST(CsvRoundTripTest, PreservesFields) {
  CsvWriter w;
  w.AddRow({"a,b", "c\"d", "e\nf", "", "plain"});
  w.AddRow({"second", "row", "", "x", "y"});
  auto rows = CsvReader::Parse(w.ToString());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0],
            (std::vector<std::string>{"a,b", "c\"d", "e\nf", "", "plain"}));
  EXPECT_EQ((*rows)[1],
            (std::vector<std::string>{"second", "row", "", "x", "y"}));
}

TEST(CsvReaderTest, HandlesCrLf) {
  auto rows = CsvReader::Parse("a,b\r\nc,d\r\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b"}));
}

TEST(CsvReaderTest, MissingTrailingNewline) {
  auto rows = CsvReader::Parse("a,b\nc,d");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvReaderTest, EmptyFieldsPreserved) {
  auto rows = CsvReader::Parse(",,\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"", "", ""}));
}

TEST(CsvReaderTest, RejectsUnterminatedQuote) {
  auto rows = CsvReader::Parse("\"abc\n");
  EXPECT_FALSE(rows.ok());
}

TEST(CsvReaderTest, RejectsQuoteInUnquotedField) {
  auto rows = CsvReader::Parse("ab\"c,d\n");
  EXPECT_FALSE(rows.ok());
}

TEST(CsvReaderTest, EmptyDocument) {
  auto rows = CsvReader::Parse("");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

}  // namespace
}  // namespace unitdb
