// Golden-equivalence suite for the incremental sliding-window extractor.
//
// `naive_extract` below is a retained verbatim copy of the pre-incremental
// FeatureExtractor::extract (the O(ticks × window) rescanning version this
// PR replaced): it is the executable specification the incremental engine
// must match byte-for-byte — same samples, same labels, same float bits — on
// storm-heavy, sparse and UE-truncated traces, at every thread count. The
// golden hashes pin both implementations against silent drift: they were
// captured from the rescanning extractor on these exact trace generators.
// Do not change the generators without recapturing.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "features/extractor.h"
#include "support/naive_lifetime.h"

namespace memfp::features {
namespace {

// ---------------------------------------------------------------------------
// Retained naive reference (pre-incremental extractor, verbatim). Its
// lifetime fault state is NaiveLifetimeState (support/naive_lifetime.h),
// which test_fault_inference.cc also checks FaultState against.
// ---------------------------------------------------------------------------

float log1pf_clamped(double value) {
  return static_cast<float>(std::log1p(std::max(0.0, value)));
}

std::vector<Sample> naive_extract(const sim::DimmTrace& trace, SimTime horizon,
                                  const PredictionWindows& windows,
                                  std::size_t n_features) {
  std::vector<Sample> samples;
  if (trace.ces.empty()) return samples;

  const dram::Geometry geometry = trace.config.geometry();
  const SimTime end =
      trace.ue ? std::min(horizon, trace.ue->time - 1) : horizon;

  NaiveLifetimeState lifetime;
  std::size_t window_begin = 0;
  std::size_t consumed = 0;
  std::size_t storm_begin = 0;
  std::size_t storm_end = 0;

  for (SimTime t = windows.cadence; t <= end; t += windows.cadence) {
    while (consumed < trace.ces.size() && trace.ces[consumed].time <= t) {
      lifetime.add(trace.ces[consumed]);
      ++consumed;
    }
    const SimTime window_start = t - windows.observation;
    while (window_begin < consumed &&
           trace.ces[window_begin].time <= window_start) {
      ++window_begin;
    }
    while (storm_end < trace.events.size() &&
           trace.events[storm_end].time <= t) {
      ++storm_end;
    }
    while (storm_begin < storm_end &&
           trace.events[storm_begin].time <= window_start) {
      ++storm_begin;
    }

    const std::size_t window_size = consumed - window_begin;
    if (window_size == 0) continue;

    Sample sample;
    sample.dimm = trace.id;
    sample.time = t;
    sample.label = trace.ue ? windows.label_for(t, trace.ue->time) : 0;
    sample.features.assign(n_features, 0.0f);
    auto& f = sample.features;
    std::size_t k = 0;

    // ---- Temporal ----
    std::uint64_t count_1h = 0, count_6h = 0, count_1d = 0, count_3d = 0;
    SimTime prev = -1;
    double inter_sum = 0.0, inter_sq = 0.0, inter_min = 1e18;
    std::size_t inter_n = 0;
    std::unordered_set<int> active_days;
    for (std::size_t i = window_begin; i < consumed; ++i) {
      const SimTime ce_time = trace.ces[i].time;
      const SimTime age = t - ce_time;
      count_1h += age <= kHour;
      count_6h += age <= hours(6);
      count_1d += age <= kDay;
      count_3d += age <= days(3);
      active_days.insert(static_cast<int>(ce_time / kDay));
      if (prev >= 0) {
        const double gap_h = static_cast<double>(ce_time - prev) /
                             static_cast<double>(kHour);
        inter_sum += gap_h;
        inter_sq += gap_h * gap_h;
        inter_min = std::min(inter_min, gap_h);
        ++inter_n;
      }
      prev = ce_time;
    }
    const std::uint64_t count_5d = window_size;
    f[k++] = log1pf_clamped(static_cast<double>(count_1h));
    f[k++] = log1pf_clamped(static_cast<double>(count_6h));
    f[k++] = log1pf_clamped(static_cast<double>(count_1d));
    f[k++] = log1pf_clamped(static_cast<double>(count_3d));
    f[k++] = log1pf_clamped(static_cast<double>(count_5d));

    int storms = 0, suppressions = 0;
    for (std::size_t i = storm_begin; i < storm_end; ++i) {
      storms += trace.events[i].type == dram::MemEventType::kCeStorm;
      suppressions +=
          trace.events[i].type == dram::MemEventType::kCeStormSuppressed;
    }
    f[k++] = static_cast<float>(storms);
    f[k++] = static_cast<float>(suppressions);

    const double inter_mean = inter_n > 0 ? inter_sum / inter_n : 120.0;
    const double inter_var =
        inter_n > 1 ? std::max(0.0, inter_sq / inter_n - inter_mean * inter_mean)
                    : 0.0;
    f[k++] = log1pf_clamped(inter_mean);
    f[k++] = log1pf_clamped(inter_n > 0 ? inter_min : 120.0);
    f[k++] = static_cast<float>(
        inter_mean > 0.0 ? std::sqrt(inter_var) / inter_mean : 0.0);
    f[k++] = static_cast<float>(
        std::log1p(static_cast<double>(count_1d)) -
        std::log1p(static_cast<double>(count_5d) / 5.0));
    f[k++] = static_cast<float>(
        static_cast<double>(t - lifetime.first_ce()) /
        static_cast<double>(kDay));
    f[k++] = static_cast<float>(
        static_cast<double>(t - lifetime.last_ce()) /
        static_cast<double>(kHour));
    f[k++] = log1pf_clamped(static_cast<double>(lifetime.total_ces()));
    f[k++] = static_cast<float>(active_days.size());

    // ---- Spatial (window structure + lifetime fault inference) ----
    std::unordered_set<std::uint64_t> cells, rows, cols, banks;
    std::unordered_map<int, int> window_devices;
    std::unordered_map<std::uint64_t, int> row_ces;
    for (std::size_t i = window_begin; i < consumed; ++i) {
      const std::uint64_t cell = naive_pack_cell(trace.ces[i].coord);
      cells.insert(cell);
      const std::uint64_t row = cell >> 16;
      rows.insert(row);
      cols.insert((cell & 0xffffff000000ffffULL));
      banks.insert(cell >> 40);
      ++window_devices[(trace.ces[i].coord.rank << 8) |
                       trace.ces[i].coord.device];
      ++row_ces[row];
    }
    int dominant = 0;
    // (unordered iteration is fine here: max() is order-independent)
    for (const auto& [device, count] : window_devices) {
      dominant = std::max(dominant, count);
    }
    int max_row = 0;
    // (unordered iteration is fine here: max() is order-independent)
    for (const auto& [row, count] : row_ces) max_row = std::max(max_row, count);

    f[k++] = log1pf_clamped(static_cast<double>(cells.size()));
    f[k++] = log1pf_clamped(static_cast<double>(rows.size()));
    f[k++] = log1pf_clamped(static_cast<double>(cols.size()));
    f[k++] = log1pf_clamped(static_cast<double>(banks.size()));
    f[k++] = static_cast<float>(window_devices.size());
    f[k++] = static_cast<float>(lifetime.devices_seen());
    f[k++] = static_cast<float>(window_size > 0 ? static_cast<double>(dominant) /
                                                      static_cast<double>(window_size)
                                                : 0.0);
    f[k++] = log1pf_clamped(lifetime.cell_faults());
    f[k++] = log1pf_clamped(lifetime.row_faults());
    f[k++] = log1pf_clamped(lifetime.column_faults());
    f[k++] = log1pf_clamped(lifetime.bank_faults());
    f[k++] = lifetime.faulty_devices() >= 2 ? 1.0f : 0.0f;
    f[k++] = lifetime.faulty_devices() == 1 ? 1.0f : 0.0f;
    f[k++] = log1pf_clamped(max_row);

    // ---- Bit-level ----
    dram::ErrorPattern window_pattern;
    int max_dq = 0, max_beats = 0, multibit = 0, cross_device = 0;
    for (std::size_t i = window_begin; i < consumed; ++i) {
      const dram::ErrorPattern& p = trace.ces[i].pattern;
      window_pattern.merge(p);
      max_dq = std::max(max_dq, p.dq_count());
      max_beats = std::max(max_beats, p.beat_count());
      multibit += p.bit_count() > 1;
      cross_device += p.device_count(geometry) > 1;
    }
    const dram::ErrorPattern& life_pattern = lifetime.pattern();
    f[k++] = static_cast<float>(window_pattern.dq_count());
    f[k++] = static_cast<float>(window_pattern.beat_count());
    f[k++] = static_cast<float>(window_pattern.max_dq_interval());
    f[k++] = static_cast<float>(window_pattern.max_beat_interval());
    f[k++] = static_cast<float>(window_pattern.beat_span());
    f[k++] = static_cast<float>(life_pattern.dq_count());
    f[k++] = static_cast<float>(life_pattern.beat_count());
    f[k++] = static_cast<float>(life_pattern.max_beat_interval());
    f[k++] = static_cast<float>(life_pattern.beat_span());
    f[k++] = log1pf_clamped(static_cast<double>(life_pattern.bit_count()));
    f[k++] = static_cast<float>(max_dq);
    f[k++] = static_cast<float>(max_beats);
    f[k++] = static_cast<float>(static_cast<double>(multibit) /
                                static_cast<double>(window_size));
    f[k++] = log1pf_clamped(cross_device);
    bool purley_risky = false;
    {
      std::unordered_map<int, dram::ErrorPattern> per_device;
      for (const dram::ErrorBit& bit : life_pattern.bits()) {
        per_device[geometry.device_of_dq(bit.dq)].add(bit);
      }
      // (unordered iteration is fine here: any-of match; the bool result)
      for (const auto& [device, pattern] : per_device) {
        if (pattern.dq_count() >= 2 && pattern.beat_count() >= 2 &&
            pattern.beat_span() >= 4) {
          purley_risky = true;
          break;
        }
      }
    }
    f[k++] = purley_risky ? 1.0f : 0.0f;
    f[k++] = life_pattern.dq_count() >= 4 && life_pattern.beat_count() >= 5
                 ? 1.0f
                 : 0.0f;

    // ---- Static ----
    f[k++] = static_cast<float>(trace.config.manufacturer);
    f[k++] = static_cast<float>(trace.config.process);
    f[k++] = static_cast<float>(trace.config.frequency_mhz) / 1000.0f;
    f[k++] = static_cast<float>(trace.config.capacity_gib);
    f[k++] = static_cast<float>(trace.config.width);

    // ---- Workload ----
    f[k++] = trace.workload.cpu_utilization;
    f[k++] = trace.workload.memory_utilization;
    f[k++] = trace.workload.read_write_ratio;

    samples.push_back(std::move(sample));
  }
  return samples;
}

/// Pre-incremental features_at: truncated trace copy + throwaway extractor
/// configured for a single tick at exactly t.
std::vector<float> naive_features_at(const sim::DimmTrace& trace, SimTime t,
                                     const PredictionWindows& windows,
                                     std::size_t n_features) {
  sim::DimmTrace truncated;
  truncated.id = trace.id;
  truncated.config = trace.config;
  truncated.workload = trace.workload;
  std::copy_if(trace.ces.begin(), trace.ces.end(),
               std::back_inserter(truncated.ces),
               [&](const dram::CeEvent& ce) { return ce.time <= t; });
  std::copy_if(trace.events.begin(), trace.events.end(),
               std::back_inserter(truncated.events),
               [&](const dram::MemEvent& event) { return event.time <= t; });
  PredictionWindows point = windows;
  point.cadence = std::max<SimDuration>(t, 1);
  std::vector<Sample> samples =
      naive_extract(truncated, t, point, n_features);
  if (samples.empty()) return {};
  return std::move(samples.front().features);
}

// ---------------------------------------------------------------------------
// Trace generators (frozen — the golden hashes depend on them).
// ---------------------------------------------------------------------------

/// Bursty trace: storm bursts of clustered CEs over a narrow coordinate
/// range (so fault thresholds trip), multibit and occasionally cross-device
/// patterns, plus storm / suppression events.
sim::DimmTrace synthetic_trace(std::uint64_t seed, int bursts,
                               int ces_per_burst, SimTime span) {
  Rng rng(seed);
  sim::DimmTrace trace;
  trace.id = static_cast<dram::DimmId>(seed);
  trace.config.manufacturer = dram::Manufacturer::kB;
  trace.config.process = dram::DramProcess::k1z;
  trace.config.frequency_mhz = 3200;
  trace.workload.cpu_utilization = 0.7f;
  std::vector<dram::CeEvent> ces;
  for (int burst = 0; burst < bursts; ++burst) {
    const SimTime start =
        1 + static_cast<SimTime>(rng.uniform_u64(static_cast<std::uint64_t>(span)));
    if (rng.bernoulli(0.5)) {
      dram::MemEvent event;
      event.time = start;
      event.type = rng.bernoulli(0.5) ? dram::MemEventType::kCeStorm
                                      : dram::MemEventType::kCeStormSuppressed;
      trace.events.push_back(event);
    }
    for (int i = 0; i < ces_per_burst; ++i) {
      dram::CeEvent ce;
      ce.time = start + static_cast<SimTime>(rng.uniform_u64(hours(8)));
      ce.coord = {static_cast<int>(rng.uniform_u64(2)),
                  static_cast<int>(rng.uniform_u64(18)),
                  static_cast<int>(rng.uniform_u64(16)),
                  static_cast<int>(rng.uniform_u64(64)),
                  static_cast<int>(rng.uniform_u64(32))};
      const int dq = static_cast<int>(rng.uniform_u64(72));
      ce.pattern.add({static_cast<std::uint8_t>(dq),
                      static_cast<std::uint8_t>(rng.uniform_u64(8))});
      if (rng.bernoulli(0.35)) {
        ce.pattern.add({static_cast<std::uint8_t>((dq + 5) % 72),
                        static_cast<std::uint8_t>(rng.uniform_u64(8))});
      }
      if (rng.bernoulli(0.1)) {
        ce.pattern.add({static_cast<std::uint8_t>(rng.uniform_u64(72)),
                        static_cast<std::uint8_t>(rng.uniform_u64(8))});
      }
      ces.push_back(ce);
    }
  }
  std::stable_sort(ces.begin(), ces.end(),
                   [](const dram::CeEvent& a, const dram::CeEvent& b) {
                     return a.time < b.time;
                   });
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const dram::MemEvent& a, const dram::MemEvent& b) {
                     return a.time < b.time;
                   });
  trace.ces = std::move(ces);
  return trace;
}

sim::DimmTrace storm_heavy_trace(std::uint64_t seed) {
  return synthetic_trace(seed, 30, 60, days(50));
}

/// Sparse trace: isolated CEs days apart, so the observation window
/// repeatedly empties (eviction down to zero, skipped ticks) and refills.
sim::DimmTrace sparse_trace(std::uint64_t seed) {
  return synthetic_trace(seed, 12, 2, days(80));
}

sim::DimmTrace ue_truncated_trace(std::uint64_t seed) {
  sim::DimmTrace trace = synthetic_trace(seed, 25, 40, days(50));
  trace.ue = dram::UeEvent{};
  trace.ue->time = days(33) + hours(7);
  trace.ue->had_prior_ce = true;
  return trace;
}

/// Edge-case trace for the split window rings and the transition-gated
/// aggregates; each phase aims at one update rule of the window state:
///  - a CE every 3 hours for 12 days cycling 1-, 2- and 14-bit patterns (the
///    14-bit one spans four devices), then a 300-CE burst on day 12: the
///    time, record and bit rings wrap once evictions start and then grow
///    while wrapped, with the bit ring out of step with the other two;
///  - one cell seen on day 1, gone from the window after day 6, seen again on
///    day 8 and repeated while present;
///  - two cells of one row, two rows of one column and two rows of one bank,
///    the older of each pair leaving the window first;
///  - CEs exactly on day boundaries (also exactly at t - observation for the
///    tick five days later) and on both sides of one;
///  - a row, a column and a bank collecting more distinct columns / rows
///    than their fault thresholds and then repeating their first cell;
///  - storm and suppression events, and a tail of isolated CEs that empties
///    the window between them.
sim::DimmTrace edge_case_trace() {
  sim::DimmTrace trace;
  trace.id = 77;
  trace.config.manufacturer = dram::Manufacturer::kA;
  trace.config.process = dram::DramProcess::k1y;
  trace.config.frequency_mhz = 2933;
  trace.workload.memory_utilization = 0.4f;
  std::vector<dram::CeEvent> ces;
  const auto add = [&ces](SimTime time, dram::CellCoord coord,
                          std::vector<dram::ErrorBit> bits) {
    dram::CeEvent ce;
    ce.time = time;
    ce.coord = coord;
    ce.pattern = dram::ErrorPattern(std::move(bits));
    ces.push_back(std::move(ce));
  };
  const auto bits_of = [](int k) {
    std::vector<dram::ErrorBit> bits;
    switch (k % 3) {
      case 0:
        bits.push_back({static_cast<std::uint8_t>(k % 72),
                        static_cast<std::uint8_t>(k % 8)});
        break;
      case 1:  // two lanes of one x4 device
        bits.push_back({static_cast<std::uint8_t>(4 * (k % 18)),
                        static_cast<std::uint8_t>(k % 8)});
        bits.push_back({static_cast<std::uint8_t>(4 * (k % 18) + 1),
                        static_cast<std::uint8_t>((k + 3) % 8)});
        break;
      default:  // 14 bits over lanes 8..21: devices 2-5, past 12 inline bits
        for (int i = 0; i < 14; ++i) {
          bits.push_back({static_cast<std::uint8_t>(8 + i),
                          static_cast<std::uint8_t>((k + i) % 8)});
        }
        break;
    }
    return bits;
  };

  // Ring fill, wrap and growth while wrapped.
  for (int k = 0; k < 96; ++k) {
    add(hours(3) * k + minutes(10), {k % 2, k % 5, k % 3, 40 + k % 7, k % 11},
        bits_of(k));
  }
  for (int k = 0; k < 300; ++k) {
    add(days(12) + hours(1) + 30 * k, {1, 4 + k % 3, 8, 900 + k % 13, k % 17},
        bits_of(k + 1));
  }

  // A cell that leaves the window and comes back.
  const dram::CellCoord returning{0, 3, 4, 100, 7};
  add(days(1) + minutes(30), returning, {{12, 1}});
  add(days(8), returning, {{12, 2}});
  add(days(8) + hours(2), returning, {{12, 2}});

  // One of several cells leaving a row, a column and a bank.
  add(days(2) + hours(2), {1, 2, 5, 200, 10}, {{8, 0}});
  add(days(4) + hours(2), {1, 2, 5, 200, 11}, {{8, 1}});
  add(days(2) + hours(3), {1, 2, 5, 300, 20}, {{9, 0}});
  add(days(4) + hours(3), {1, 2, 5, 301, 20}, {{9, 1}});
  add(days(2) + hours(4), {1, 2, 6, 400, 30}, {{10, 0}});
  add(days(3) + hours(4), {1, 2, 6, 401, 31}, {{10, 1}});

  // Day boundaries, which are also eviction boundaries five days on, and a
  // cross-device pair across the lane 3 / lane 4 device edge.
  add(days(3), {0, 6, 1, 10, 1}, {{3, 0}, {4, 0}});
  add(days(4), {0, 6, 1, 10, 2}, {{3, 5}});
  add(days(9), {0, 6, 1, 10, 1}, {{4, 7}});
  add(days(10) - 1, {0, 6, 1, 11, 1}, {{3, 3}, {4, 4}});
  add(days(10), {0, 6, 1, 11, 1}, {{5, 3}});

  // Saturated row, column and bank sets, then their first cell again.
  for (int c = 0; c < 5; ++c) {
    add(days(13) + hours(c), {0, 7, 9, 500, c}, {{28, 2}});
  }
  for (int r = 0; r < 4; ++r) {
    add(days(13) + hours(5 + r), {0, 7, 9, 600 + r, 50}, {{29, 2}});
  }
  for (int i = 0; i < 7; ++i) {
    add(days(13) + hours(10 + i), {0, 8, 2, 700 + i, 60 + i}, {{33, 6}});
  }
  add(days(14) + hours(1), {0, 7, 9, 500, 0}, {{28, 3}});
  add(days(14) + hours(2), {0, 7, 9, 600, 50}, {{29, 3}});
  add(days(14) + hours(3), {0, 8, 2, 700, 60}, {{33, 7}});

  // Isolated tail CEs, each alone in its window.
  add(days(22) + hours(5), {1, 0, 0, 1, 1}, {{0, 0}});
  add(days(29), {1, 0, 0, 1, 1}, {{70, 7}, {71, 7}});

  for (const auto& [time, type] :
       {std::pair{days(2) + hours(2), dram::MemEventType::kCeStorm},
        std::pair{days(7) + hours(2), dram::MemEventType::kCeStormSuppressed},
        std::pair{days(12) + hours(1), dram::MemEventType::kCeStorm}}) {
    dram::MemEvent event;
    event.time = time;
    event.type = type;
    trace.events.push_back(event);
  }
  std::stable_sort(ces.begin(), ces.end(),
                   [](const dram::CeEvent& a, const dram::CeEvent& b) {
                     return a.time < b.time;
                   });
  trace.ces = std::move(ces);
  return trace;
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

std::uint64_t fnv1a64_u32(std::uint64_t h, std::uint32_t v) {
  for (int byte = 0; byte < 4; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t hash_samples(const std::vector<Sample>& samples) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Sample& sample : samples) {
    h = fnv1a64_u32(h, static_cast<std::uint32_t>(sample.time / kHour));
    h = fnv1a64_u32(h, static_cast<std::uint32_t>(sample.label + 1));
    for (float value : sample.features) {
      h = fnv1a64_u32(h, std::bit_cast<std::uint32_t>(value));
    }
  }
  return h;
}

PredictionWindows test_windows() {
  PredictionWindows windows;
  windows.cadence = hours(6);  // many ticks per observation window
  return windows;
}

// Golden hashes captured from naive_extract (the retained pre-incremental
// extractor) on the frozen generators above, windows = test_windows().
constexpr std::uint64_t kGoldenStormHash = 17739176330598536077ULL;
constexpr std::uint64_t kGoldenSparseHash = 5198835115104375519ULL;
constexpr std::uint64_t kGoldenUeHash = 8647230958712640813ULL;
constexpr std::uint64_t kGoldenEdgeCaseHash = 14770206838711567263ULL;

void expect_identical(const std::vector<Sample>& naive,
                      const std::vector<Sample>& incremental) {
  ASSERT_EQ(naive.size(), incremental.size());
  for (std::size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(naive[i].time, incremental[i].time);
    EXPECT_EQ(naive[i].label, incremental[i].label);
    ASSERT_EQ(naive[i].features.size(), incremental[i].features.size());
    for (std::size_t j = 0; j < naive[i].features.size(); ++j) {
      // Bit-level comparison: byte-identical, not just numerically close.
      EXPECT_EQ(std::bit_cast<std::uint32_t>(naive[i].features[j]),
                std::bit_cast<std::uint32_t>(incremental[i].features[j]))
          << "sample " << i << " (t=" << naive[i].time << ") feature " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

TEST(ExtractorIncremental, StormHeavyMatchesNaiveByteForByte) {
  const PredictionWindows windows = test_windows();
  const FeatureExtractor extractor(windows);
  const sim::DimmTrace trace = storm_heavy_trace(91);
  const SimTime horizon = days(55);

  const std::vector<Sample> naive = naive_extract(
      trace, horizon, windows, extractor.schema().size());
  const std::vector<Sample> incremental = extractor.extract(trace, horizon);
  ASSERT_GT(naive.size(), 100u);
  expect_identical(naive, incremental);
  EXPECT_EQ(hash_samples(naive), kGoldenStormHash);
  EXPECT_EQ(hash_samples(incremental), kGoldenStormHash);
}

TEST(ExtractorIncremental, SparseMatchesNaiveByteForByte) {
  const PredictionWindows windows = test_windows();
  const FeatureExtractor extractor(windows);
  const sim::DimmTrace trace = sparse_trace(92);
  const SimTime horizon = days(85);

  const std::vector<Sample> naive = naive_extract(
      trace, horizon, windows, extractor.schema().size());
  const std::vector<Sample> incremental = extractor.extract(trace, horizon);
  ASSERT_FALSE(naive.empty());
  // The sparse generator must actually exercise empty-window skipping.
  const std::size_t possible_ticks =
      static_cast<std::size_t>(horizon / windows.cadence);
  ASSERT_LT(naive.size(), possible_ticks);
  expect_identical(naive, incremental);
  EXPECT_EQ(hash_samples(naive), kGoldenSparseHash);
  EXPECT_EQ(hash_samples(incremental), kGoldenSparseHash);
}

TEST(ExtractorIncremental, UeTruncatedMatchesNaiveByteForByte) {
  const PredictionWindows windows = test_windows();
  const FeatureExtractor extractor(windows);
  const sim::DimmTrace trace = ue_truncated_trace(93);
  const SimTime horizon = days(55);

  const std::vector<Sample> naive = naive_extract(
      trace, horizon, windows, extractor.schema().size());
  const std::vector<Sample> incremental = extractor.extract(trace, horizon);
  ASSERT_FALSE(naive.empty());
  // Truncation and labels: no sample at or past the UE, positives present.
  EXPECT_LT(naive.back().time, trace.ue->time);
  EXPECT_TRUE(std::any_of(naive.begin(), naive.end(),
                          [](const Sample& s) { return s.label == 1; }));
  expect_identical(naive, incremental);
  EXPECT_EQ(hash_samples(naive), kGoldenUeHash);
  EXPECT_EQ(hash_samples(incremental), kGoldenUeHash);
}

TEST(ExtractorIncremental, EdgeCasesMatchNaiveByteForByte) {
  const PredictionWindows windows = test_windows();
  const FeatureExtractor extractor(windows);
  const sim::DimmTrace trace = edge_case_trace();
  const SimTime horizon = days(31);

  const std::vector<Sample> naive = naive_extract(
      trace, horizon, windows, extractor.schema().size());
  ASSERT_FALSE(naive.empty());
  EXPECT_EQ(hash_samples(naive), kGoldenEdgeCaseHash);
  // The isolated tail must empty the window between its CEs.
  ASSERT_LT(naive.size(), static_cast<std::size_t>(horizon / windows.cadence));
  expect_identical(naive, extractor.extract(trace, horizon));

  // The same ticks through both streaming entry points: the direct fold the
  // serving engine uses, and the queue that observe_* feeds.
  OnlineExtractorState direct =
      extractor.open_stream(trace.config, trace.workload);
  OnlineExtractorState queued =
      extractor.open_stream(trace.config, trace.workload);
  std::size_t next_ce = 0;
  std::size_t next_event = 0;
  std::vector<Sample> direct_samples;
  std::vector<Sample> queued_samples;
  std::vector<float> features;
  for (SimTime t = windows.cadence; t <= horizon; t += windows.cadence) {
    for (; next_ce < trace.ces.size() && trace.ces[next_ce].time <= t;
         ++next_ce) {
      direct.ingest_ce_at(t, trace.ces[next_ce]);
      queued.observe_ce(trace.ces[next_ce]);
    }
    for (; next_event < trace.events.size() &&
           trace.events[next_event].time <= t;
         ++next_event) {
      direct.ingest_event_at(t, trace.events[next_event]);
      queued.observe_event(trace.events[next_event]);
    }
    for (auto [stream, out] : {std::pair{&direct, &direct_samples},
                               std::pair{&queued, &queued_samples}}) {
      stream->features_at(t, features);
      if (features.empty()) continue;
      Sample sample;
      sample.time = t;
      sample.features = features;
      out->push_back(std::move(sample));
    }
  }
  expect_identical(naive, direct_samples);
  expect_identical(naive, queued_samples);

  // Off-cadence queries, so window ends fall between CEs too.
  OnlineExtractorState offset =
      extractor.open_stream(trace.config, trace.workload);
  next_ce = 0;
  next_event = 0;
  for (SimTime t = hours(5); t <= horizon; t += hours(7)) {
    for (; next_ce < trace.ces.size() && trace.ces[next_ce].time <= t;
         ++next_ce) {
      offset.ingest_ce_at(t, trace.ces[next_ce]);
    }
    for (; next_event < trace.events.size() &&
           trace.events[next_event].time <= t;
         ++next_event) {
      offset.ingest_event_at(t, trace.events[next_event]);
    }
    offset.features_at(t, features);
    ASSERT_EQ(features, naive_features_at(trace, t, windows,
                                          extractor.schema().size()))
        << "streaming divergence at t=" << t;
  }
}

TEST(ExtractorIncremental, ParallelExtractionIdenticalAtEveryThreadCount) {
  const PredictionWindows windows = test_windows();
  const FeatureExtractor extractor(windows);
  const SimTime horizon = days(55);
  std::vector<sim::DimmTrace> dimms;
  for (std::uint64_t seed = 200; seed < 212; ++seed) {
    dimms.push_back(synthetic_trace(seed, 15, 25, days(50)));
  }
  dimms.push_back(ue_truncated_trace(93));

  std::vector<std::uint64_t> reference;
  for (int threads : {1, 2, 4}) {
    ThreadPool::ScopedLimit cap(threads);
    std::vector<std::vector<Sample>> extracted(dimms.size());
    ThreadPool::global().parallel_for(
        dimms.size(),
        [&](std::size_t d) {
          extracted[d] = extractor.extract(dimms[d], horizon);
        },
        /*grain=*/1);
    std::vector<std::uint64_t> hashes;
    for (const std::vector<Sample>& samples : extracted) {
      hashes.push_back(hash_samples(samples));
    }
    if (reference.empty()) {
      reference = hashes;
      // Cross-check thread count 1 against the naive reference per DIMM.
      for (std::size_t d = 0; d < dimms.size(); ++d) {
        const std::vector<Sample> naive =
            naive_extract(dimms[d], horizon, windows,
                          extractor.schema().size());
        expect_identical(naive, extracted[d]);
      }
    } else {
      EXPECT_EQ(hashes, reference) << "divergence at " << threads << " threads";
    }
  }
}

TEST(ExtractorIncremental, StreamingStateMatchesOneShotServing) {
  const PredictionWindows windows = test_windows();
  const FeatureExtractor extractor(windows);
  const sim::DimmTrace trace = storm_heavy_trace(94);

  OnlineExtractorState stream =
      extractor.open_stream(trace.config, trace.workload);
  std::size_t next_ce = 0;
  std::size_t next_event = 0;
  std::vector<float> streamed;
  // Query off-cadence times too: serving is not tied to the tick grid.
  for (SimTime t = hours(5); t <= days(54); t += hours(17)) {
    while (next_ce < trace.ces.size() && trace.ces[next_ce].time <= t) {
      stream.observe_ce(trace.ces[next_ce++]);
    }
    while (next_event < trace.events.size() &&
           trace.events[next_event].time <= t) {
      stream.observe_event(trace.events[next_event++]);
    }
    stream.features_at(t, streamed);
    const std::vector<float> naive = naive_features_at(
        trace, t, windows, extractor.schema().size());
    const std::vector<float> one_shot = extractor.features_at(trace, t);
    ASSERT_EQ(streamed, naive) << "streaming divergence at t=" << t;
    ASSERT_EQ(one_shot, naive) << "one-shot divergence at t=" << t;
  }
  EXPECT_EQ(next_ce, trace.ces.size());  // the sweep consumed the trace
}

TEST(ExtractorIncremental, StreamingHonorsPendingFutureEvents) {
  const PredictionWindows windows = test_windows();
  const FeatureExtractor extractor(windows);
  const sim::DimmTrace trace = storm_heavy_trace(95);

  // Feed the whole trace up front; queries must still only see time <= t.
  OnlineExtractorState stream =
      extractor.open_stream(trace.config, trace.workload);
  for (const dram::CeEvent& ce : trace.ces) stream.observe_ce(ce);
  for (const dram::MemEvent& event : trace.events) stream.observe_event(event);

  std::vector<float> streamed;
  for (SimTime t = days(2); t <= days(54); t += days(13)) {
    stream.features_at(t, streamed);
    const std::vector<float> one_shot = extractor.features_at(trace, t);
    ASSERT_EQ(streamed, one_shot) << "pending-event leakage at t=" << t;
  }
}

}  // namespace
}  // namespace memfp::features
