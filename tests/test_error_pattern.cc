#include "dram/error_pattern.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dram/events.h"

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

void expect_bits(const ErrorPattern& p, const std::set<ErrorBit>& reference) {
  EXPECT_EQ(p.bit_count(), reference.size());
  EXPECT_EQ(p.empty(), reference.empty());
  EXPECT_TRUE(std::ranges::equal(p.bits(), reference));
}

/// `count` distinct bits, lanes `first_dq` upwards.
ErrorPattern distinct_bits(std::size_t count, int first_dq) {
  std::vector<ErrorBit> bits;
  for (std::size_t i = 0; i < count; ++i) {
    bits.push_back({static_cast<std::uint8_t>(first_dq + static_cast<int>(i)),
                    static_cast<std::uint8_t>(i % 8)});
  }
  return ErrorPattern(std::move(bits));
}

TEST(ErrorPattern, InlineAndSpillMatchSetReference) {
  // Bits drawn from a 4x4 corner of the burst repeat often, and 0-12 draws
  // put the distinct count on both sides of the inline capacity.
  Rng rng(620);
  std::set<std::size_t> sizes_seen;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<ErrorBit> draws;
    const auto n = rng.uniform_int(0, 12);
    for (std::int64_t i = 0; i < n; ++i) {
      draws.push_back({static_cast<std::uint8_t>(rng.uniform_int(0, 3)),
                       static_cast<std::uint8_t>(rng.uniform_int(0, 3))});
    }
    const std::set<ErrorBit> reference(draws.begin(), draws.end());
    sizes_seen.insert(reference.size());

    ErrorPattern added;
    for (const ErrorBit& bit : draws) added.add(bit);
    expect_bits(added, reference);
    const ErrorPattern constructed(draws);
    expect_bits(constructed, reference);
    EXPECT_EQ(added, constructed);

    // Merge two halves built along different paths, then merge again.
    const auto cut =
        static_cast<std::ptrdiff_t>(rng.uniform_u64(draws.size() + 1));
    ErrorPattern merged(
        std::vector<ErrorBit>(draws.begin(), draws.begin() + cut));
    ErrorPattern rest;
    for (auto it = draws.begin() + cut; it != draws.end(); ++it) rest.add(*it);
    merged.merge(rest);
    expect_bits(merged, reference);
    EXPECT_EQ(merged, added);
    merged.merge(constructed);
    EXPECT_EQ(merged, added);
  }
  EXPECT_TRUE(sizes_seen.contains(ErrorPattern::kInline));
  EXPECT_TRUE(sizes_seen.contains(ErrorPattern::kInline + 1));
}

TEST(ErrorPattern, AddAtTheSpillBoundaryKeepsOrder) {
  // The seventh distinct bit spills wherever it sorts: first, middle, last.
  for (const ErrorBit extra :
       {ErrorBit{0, 0}, ErrorBit{10, 0}, ErrorBit{99, 0}}) {
    ErrorPattern p = distinct_bits(ErrorPattern::kInline, 5);
    std::set<ErrorBit> reference(p.bits().begin(), p.bits().end());
    p.add(extra);
    reference.insert(extra);
    expect_bits(p, reference);
    p.add(extra);  // already present once spilled
    expect_bits(p, reference);
  }
}

TEST(ErrorPattern, CopyMoveAndAssignKeepInlineAndSpilledBits) {
  const std::size_t sizes[] = {0, 3, ErrorPattern::kInline,
                               ErrorPattern::kInline + 1, 12};
  for (const std::size_t size : sizes) {
    SCOPED_TRACE(size);
    const ErrorPattern original = distinct_bits(size, 0);
    const std::set<ErrorBit> reference(original.bits().begin(),
                                       original.bits().end());

    ErrorPattern copy(original);
    expect_bits(copy, reference);
    ErrorPattern moved(std::move(copy));
    expect_bits(moved, reference);
    // A moved-from pattern stays a valid pattern.
    EXPECT_EQ(copy.bits().size(), copy.bit_count());
    copy = original;
    expect_bits(copy, reference);

    // Assignment over an inline and over a spilled target, both ways.
    for (const std::size_t target_size : sizes) {
      ErrorPattern copied = distinct_bits(target_size, 100);
      copied = original;
      expect_bits(copied, reference);
      EXPECT_EQ(copied, original);
      ErrorPattern source = original;
      ErrorPattern assigned = distinct_bits(target_size, 100);
      assigned = std::move(source);
      expect_bits(assigned, reference);
      EXPECT_EQ(assigned, original);
    }
    if (size > 0) {
      EXPECT_NE(original, distinct_bits(size, 1));
      EXPECT_NE(original, distinct_bits(size - 1, 0));
    }
  }
}

TEST(ErrorPattern, CeEventStaysCompact) {
  // Patterns are stored inline in every CE; this pins the per-CE footprint.
  EXPECT_LE(sizeof(CeEvent), 72u);
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
