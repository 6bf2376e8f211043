#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>

#include "common/flat_map.h"
#include "common/rng.h"
#include "common/string_utils.h"
#include "common/table.h"
#include "common/time.h"

namespace memfp {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(minutes(2), 120);
  EXPECT_EQ(hours(1), 3600);
  EXPECT_EQ(days(1), 86400);
  EXPECT_EQ(days(5), 5 * 24 * 3600);
}

// Inserts, increments and erases over a small key range, so probe chains
// run long and backward-shift erasure moves entries across the wrap of the
// slot array; every step is checked against std::unordered_map.
TEST(FlatMap64, MatchesUnorderedMapUnderChurn) {
  Rng rng(17);
  FlatMap64<int> flat;
  std::unordered_map<std::uint64_t, int> reference;
  for (int step = 0; step < 20000; ++step) {
    // High-bit keys, like packed cell addresses.
    const std::uint64_t key = rng.uniform_u64(96) << 40;
    if (rng.bernoulli(0.55)) {
      EXPECT_EQ(++flat[key], ++reference[key]);
    } else if (reference.count(key) != 0) {
      flat.erase(key);
      reference.erase(key);
    }
    ASSERT_EQ(flat.size(), reference.size());
    const int* found = flat.find(key);
    ASSERT_EQ(found != nullptr, reference.count(key) != 0);
    if (found != nullptr) {
      EXPECT_EQ(*found, reference.at(key));
    }
  }
  for (std::uint64_t k = 0; k < 96; ++k) {
    const int* found = flat.find(k << 40);
    const auto it = reference.find(k << 40);
    ASSERT_EQ(found != nullptr, it != reference.end());
    if (found != nullptr) {
      EXPECT_EQ(*found, it->second);
    }
  }
}

TEST(StringUtils, Split) {
  const std::vector<std::string> expected{"a", "", "b"};
  EXPECT_EQ(split("a,,b", ','), expected);
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(StringUtils, Join) {
  EXPECT_EQ(join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtils, StartsWith) {
  EXPECT_TRUE(starts_with("memfp", "mem"));
  EXPECT_FALSE(starts_with("mem", "memfp"));
}

TEST(StringUtils, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(StringUtils, FormatPercent) {
  EXPECT_EQ(format_percent(0.735, 1), "73.5%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable table("Title");
  table.set_header({"col", "value"});
  table.add_row({"short", "1"});
  table.add_row({"a-much-longer-cell", "22"});
  const std::string out = table.render();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("a-much-longer-cell"), std::string::npos);
  // All lines between rules should share the same width.
  std::size_t first_line_end = out.find('\n', out.find('+'));
  const std::string rule = out.substr(out.find('+'), first_line_end - out.find('+'));
  EXPECT_GT(rule.size(), 10u);
}

TEST(TextTable, RuleSeparatesSections) {
  TextTable table;
  table.set_header({"h"});
  table.add_row({"a"});
  table.add_rule();
  table.add_row({"b"});
  const std::string out = table.render();
  // Expect at least 4 horizontal rules: top, under header, mid, bottom.
  std::size_t rules = 0, pos = 0;
  while ((pos = out.find("+-", pos)) != std::string::npos) {
    ++rules;
    pos += 2;
  }
  EXPECT_GE(rules, 4u);
}

}  // namespace
}  // namespace memfp
