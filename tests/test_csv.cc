#include "common/csv.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

namespace memfp {
namespace {

TEST(CsvWriter, SimpleRoundTrip) {
  CsvWriter writer({"a", "b"});
  writer.add_row({"1", "2"});
  writer.add_row({"3", "4"});
  EXPECT_EQ(writer.rows(), 2u);
  EXPECT_EQ(writer.to_string(), "a,b\n1,2\n3,4\n");
}

TEST(CsvWriter, RejectsRaggedRow) {
  CsvWriter writer({"a", "b"});
  EXPECT_THROW(writer.add_row({"only-one"}), std::runtime_error);
}

TEST(CsvWriter, QuotesSpecialCharacters) {
  CsvWriter writer({"text", "plain"});
  writer.add_row({"hello, \"world\"\nline2", "x"});
  writer.add_row({"cr\rhere", ""});
  // RFC 4180: a field holding a separator, quote or line break is quoted
  // and its quotes are doubled; every other field is written bare.
  EXPECT_EQ(writer.to_string(),
            "text,plain\n"
            "\"hello, \"\"world\"\"\nline2\",x\n"
            "\"cr\rhere\",\n");
}

TEST(Csv, FileRoundTrip) {
  CsvWriter writer({"k", "v"});
  writer.add_row({"alpha", "1"});
  writer.add_row({"be,ta", "2"});
  const std::string path = testing::TempDir() + "/memfp_test.csv";
  writer.save(path);
  std::ifstream file(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(file),
                          std::istreambuf_iterator<char>()};
  EXPECT_EQ(bytes, "k,v\nalpha,1\n\"be,ta\",2\n");
  EXPECT_EQ(bytes, writer.to_string());
}

}  // namespace
}  // namespace memfp
