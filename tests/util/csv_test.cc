#include "src/util/csv.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace odutil {
namespace {

std::string TempPath() {
  return testing::TempDir() + "/csv_test_out.csv";
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(CsvEscapeTest, PlainFieldUnchanged) {
  EXPECT_EQ(CsvWriter::Escape("hello"), "hello");
  EXPECT_EQ(CsvWriter::Escape("12.5"), "12.5");
}

TEST(CsvEscapeTest, CommaQuoted) {
  EXPECT_EQ(CsvWriter::Escape("a,b"), "\"a,b\"");
}

TEST(CsvEscapeTest, QuotesDoubled) {
  EXPECT_EQ(CsvWriter::Escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscapeTest, NewlineQuoted) {
  EXPECT_EQ(CsvWriter::Escape("a\nb"), "\"a\nb\"");
}

TEST(CsvWriterTest, WritesRows) {
  std::string path = TempPath();
  {
    CsvWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.WriteRow({"t", "supply", "demand"});
    writer.WriteNumericRow({1.5, 13000.0, 12500.25}, 8);
  }
  EXPECT_EQ(ReadAll(path), "t,supply,demand\n1.5,13000,12500.25\n");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, BadPathReportsNotOk) {
  CsvWriter writer("/nonexistent-dir-xyz/out.csv");
  EXPECT_FALSE(writer.ok());
  writer.WriteRow({"a"});  // Must not crash.
}

}  // namespace
}  // namespace odutil
