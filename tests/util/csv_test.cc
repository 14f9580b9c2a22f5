#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace urbane {
namespace {

TEST(ParseCsvTest, HeaderAndRows) {
  const auto doc = ParseCsv("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->header, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(doc->rows.size(), 2u);
  EXPECT_EQ(doc->rows[1][2], "6");
}

TEST(ParseCsvTest, QuotedFieldsWithCommasAndNewlines) {
  const auto doc = ParseCsv("name,notes\nalice,\"hi, there\"\nbob,\"l1\nl2\"\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][1], "hi, there");
  EXPECT_EQ(doc->rows[1][1], "l1\nl2");
}

TEST(ParseCsvTest, EscapedQuotes) {
  const auto doc = ParseCsv("q\n\"she said \"\"hi\"\"\"\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][0], "she said \"hi\"");
}

TEST(ParseCsvTest, CrLfLineEndings) {
  const auto doc = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0][1], "2");
}

TEST(ParseCsvTest, NoTrailingNewline) {
  const auto doc = ParseCsv("a,b\n1,2");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
}

TEST(ParseCsvTest, RejectsRaggedRows) {
  EXPECT_FALSE(ParseCsv("a,b\n1,2,3\n").ok());
}

TEST(ParseCsvTest, RejectsEmptyInput) { EXPECT_FALSE(ParseCsv("").ok()); }

TEST(ParseCsvTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsv("a\n\"oops\n").ok());
}

TEST(ParseCsvTest, CustomDelimiter) {
  const auto doc = ParseCsv("a;b\n1;2\n", ';');
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][0], "1");
}

TEST(WriteCsvTest, RoundTripsQuoting) {
  CsvDocument doc;
  doc.header = {"k", "v"};
  doc.rows = {{"plain", "with,comma"}, {"quote\"inside", "line\nbreak"}};
  const std::string text = WriteCsv(doc);
  const auto parsed = ParseCsv(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header, doc.header);
  EXPECT_EQ(parsed->rows, doc.rows);
}

TEST(CsvDocumentTest, ColumnIndex) {
  CsvDocument doc;
  doc.header = {"x", "y", "t"};
  EXPECT_EQ(doc.ColumnIndex("y"), 1);
  EXPECT_EQ(doc.ColumnIndex("missing"), -1);
}

TEST(CsvFileTest, WriteAndReadBack) {
  const std::string path = ::testing::TempDir() + "/csv_test_roundtrip.csv";
  CsvDocument doc;
  doc.header = {"a"};
  doc.rows = {{"1"}, {"2"}};
  ASSERT_TRUE(WriteCsvFile(doc, path).ok());
  const auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  const auto loaded = ParseCsv(*content);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows.size(), 2u);
  std::remove(path.c_str());
}

TEST(ReadFileToStringTest, MissingFileFails) {
  EXPECT_FALSE(ReadFileToString("/nonexistent/definitely/missing").ok());
}

}  // namespace
}  // namespace urbane
