#include "dram/error_pattern.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"

namespace memfp::dram {
namespace {

/// Reference definition of the pattern statistics: sort the distinct values.
template <typename Extract>
std::vector<int> sorted_distinct(const ErrorPattern& p, Extract extract) {
  std::vector<int> values;
  for (const ErrorBit& bit : p.bits()) values.push_back(extract(bit));
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

int reference_span(const std::vector<int>& v) {
  return v.size() < 2 ? 0 : v.back() - v.front();
}

int reference_max_gap(const std::vector<int>& v) {
  int gap = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    gap = std::max(gap, v[i] - v[i - 1]);
  }
  return gap;
}

TEST(ErrorPattern, EmptyStats) {
  ErrorPattern p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.dq_count(), 0);
  EXPECT_EQ(p.beat_count(), 0);
  EXPECT_EQ(p.max_dq_interval(), 0);
  EXPECT_EQ(p.max_beat_interval(), 0);
  EXPECT_EQ(p.beat_span(), 0);
}

TEST(ErrorPattern, AddDeduplicates) {
  ErrorPattern p;
  p.add({3, 2});
  p.add({3, 2});
  EXPECT_EQ(p.bit_count(), 1u);
}

TEST(ErrorPattern, ConstructorSortsAndDeduplicates) {
  ErrorPattern p({{5, 1}, {2, 0}, {5, 1}});
  ASSERT_EQ(p.bit_count(), 2u);
  EXPECT_EQ(p.bits()[0], (ErrorBit{2, 0}));
  EXPECT_EQ(p.bits()[1], (ErrorBit{5, 1}));
}

TEST(ErrorPattern, CountsDistinctLanesAndBeats) {
  ErrorPattern p({{0, 0}, {0, 4}, {1, 0}});
  EXPECT_EQ(p.dq_count(), 2);
  EXPECT_EQ(p.beat_count(), 2);
}

TEST(ErrorPattern, IntervalsAreMaxAdjacentGaps) {
  ErrorPattern p({{0, 0}, {1, 0}, {5, 0}});
  EXPECT_EQ(p.max_dq_interval(), 4);  // gap between lanes 1 and 5
  ErrorPattern q({{0, 0}, {0, 2}, {0, 7}});
  EXPECT_EQ(q.max_beat_interval(), 5);  // gap between beats 2 and 7
}

TEST(ErrorPattern, SpansAreOuterDistances) {
  ErrorPattern p({{2, 1}, {6, 3}, {4, 6}});
  EXPECT_EQ(p.dq_span(), 4);
  EXPECT_EQ(p.beat_span(), 5);
}

TEST(ErrorPattern, SingleBitHasZeroIntervals) {
  ErrorPattern p({{7, 3}});
  EXPECT_EQ(p.max_dq_interval(), 0);
  EXPECT_EQ(p.max_beat_interval(), 0);
}

TEST(ErrorPattern, DeviceMapping) {
  const Geometry g = Geometry::ddr4_x4();
  ErrorPattern single({{0, 0}, {3, 1}});  // lanes 0-3 = device 0
  EXPECT_TRUE(single.single_device(g));
  EXPECT_EQ(single.device_count(g), 1);

  ErrorPattern multi({{0, 0}, {4, 0}});  // lane 4 = device 1
  EXPECT_FALSE(multi.single_device(g));
  const std::vector<int> expected{0, 1};
  EXPECT_EQ(multi.devices(g), expected);
}

TEST(ErrorPattern, MergeIsUnion) {
  ErrorPattern a({{0, 0}, {1, 1}});
  ErrorPattern b({{1, 1}, {2, 2}});
  a.merge(b);
  EXPECT_EQ(a.bit_count(), 3u);
}

TEST(ErrorPattern, MergeIsIdempotent) {
  ErrorPattern a({{0, 0}, {1, 1}});
  ErrorPattern copy = a;
  a.merge(copy);
  EXPECT_EQ(a, copy);
}

TEST(ErrorPattern, StatsMatchSortedDistinctDefinition) {
  Geometry wide_burst = Geometry::ddr4_x4();
  wide_burst.beats = 16;
  Rng rng(2024);
  for (const Geometry& g :
       {Geometry::ddr4_x4(), Geometry::ddr4_x8(), wide_burst}) {
    for (int trial = 0; trial < 500; ++trial) {
      std::vector<ErrorBit> bits;
      const auto n = rng.uniform_int(0, 12);
      for (std::int64_t i = 0; i < n; ++i) {
        bits.push_back(
            {static_cast<std::uint8_t>(rng.uniform_int(0, g.total_dq() - 1)),
             static_cast<std::uint8_t>(rng.uniform_int(0, g.beats - 1))});
      }
      const ErrorPattern p(bits);
      const auto dqs =
          sorted_distinct(p, [](const ErrorBit& b) { return b.dq; });
      const auto beats =
          sorted_distinct(p, [](const ErrorBit& b) { return b.beat; });
      const auto devices = sorted_distinct(
          p, [&](const ErrorBit& b) { return g.device_of_dq(b.dq); });
      EXPECT_EQ(p.dq_count(), static_cast<int>(dqs.size()));
      EXPECT_EQ(p.beat_count(), static_cast<int>(beats.size()));
      EXPECT_EQ(p.dq_span(), reference_span(dqs));
      EXPECT_EQ(p.beat_span(), reference_span(beats));
      EXPECT_EQ(p.max_dq_interval(), reference_max_gap(dqs));
      EXPECT_EQ(p.max_beat_interval(), reference_max_gap(beats));
      EXPECT_EQ(p.devices(g), devices);
      EXPECT_EQ(p.device_count(g), static_cast<int>(devices.size()));
    }
  }
}

TEST(ErrorPattern, StatsCoverFullEightBitRange) {
  ErrorPattern p({{0, 0}, {63, 64}, {64, 200}, {255, 255}});
  EXPECT_EQ(p.dq_count(), 4);
  EXPECT_EQ(p.dq_span(), 255);
  EXPECT_EQ(p.max_dq_interval(), 191);
  EXPECT_EQ(p.beat_count(), 4);
  EXPECT_EQ(p.beat_span(), 255);
  EXPECT_EQ(p.max_beat_interval(), 136);
}

}  // namespace
}  // namespace memfp::dram
