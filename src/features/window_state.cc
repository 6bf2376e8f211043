#include "features/window_state.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "dram/ecc.h"

namespace memfp::features {
namespace {

float log1pf_clamped(double value) {
  return static_cast<float>(std::log1p(std::max(0.0, value)));
}

}  // namespace

// ---- SlidingCountMap --------------------------------------------------------

int SlidingCountMap::decrement(std::uint64_t key) {
  int* entry = counts_.find(key);
  MEMFP_CHECK(entry != nullptr) << "decrement of absent key";
  const int count = --*entry;
  if (count == 0) counts_.erase(key);
  return count;
}

int SlidingMaxCountMap::increment(std::uint64_t key) {
  const int count = counts_.increment(key);
  if (count > 1) --freq_[static_cast<std::size_t>(count - 1)];
  if (static_cast<std::size_t>(count) >= freq_.size()) {
    freq_.resize(static_cast<std::size_t>(count) + 1, 0);
  }
  ++freq_[static_cast<std::size_t>(count)];
  max_ = std::max(max_, count);
  return count;
}

int SlidingMaxCountMap::decrement(std::uint64_t key) {
  const int count = counts_.decrement(key);
  --freq_[static_cast<std::size_t>(count + 1)];
  if (count > 0) ++freq_[static_cast<std::size_t>(count)];
  // A single decrement lowers the maximum multiplicity by at most one.
  if (count + 1 == max_ && freq_[static_cast<std::size_t>(max_)] == 0) {
    max_ = count;
  }
  return count;
}

// ---- Axis statistics --------------------------------------------------------

AxisStats axis_stats(const std::vector<int>& occupancy) {
  AxisStats stats;
  int first = -1;
  int prev = -1;
  for (int value = 0; value < static_cast<int>(occupancy.size()); ++value) {
    if (occupancy[static_cast<std::size_t>(value)] == 0) continue;
    ++stats.count;
    if (first < 0) first = value;
    if (prev >= 0) stats.max_interval = std::max(stats.max_interval, value - prev);
    prev = value;
  }
  if (stats.count >= 2) stats.span = prev - first;
  return stats;
}

// ---- WindowPatternState -----------------------------------------------------

WindowPatternState::WindowPatternState(const dram::Geometry& geometry)
    : beats_(geometry.beats),
      bit_counts_(static_cast<std::size_t>(geometry.total_dq()) *
                      static_cast<std::size_t>(geometry.beats),
                  0),
      dq_occupancy_(static_cast<std::size_t>(geometry.total_dq()), 0),
      beat_occupancy_(static_cast<std::size_t>(geometry.beats), 0) {}

void WindowPatternState::add(std::span<const dram::ErrorBit> bits) {
  for (const dram::ErrorBit& bit : bits) {
    const std::size_t dq = bit.dq;
    const std::size_t beat = bit.beat;
    MEMFP_CHECK(dq < dq_occupancy_.size() && beat < beat_occupancy_.size())
        << "error bit outside transfer geometry";
    if (++bit_counts_[dq * static_cast<std::size_t>(beats_) + beat] == 1) {
      ++dq_occupancy_[dq];
      ++beat_occupancy_[beat];
    }
  }
}

// ---- LifetimePatternState ---------------------------------------------------

LifetimePatternState::LifetimePatternState(const dram::Geometry& geometry)
    : geometry_(geometry),
      beats_(geometry.beats),
      bit_seen_(static_cast<std::size_t>(geometry.total_dq()) *
                    static_cast<std::size_t>(geometry.beats),
                0),
      dq_occupancy_(static_cast<std::size_t>(geometry.total_dq()), 0),
      beat_occupancy_(static_cast<std::size_t>(geometry.beats), 0),
      device_dq_mask_(static_cast<std::size_t>(geometry.devices_per_rank()), 0),
      device_beat_mask_(static_cast<std::size_t>(geometry.devices_per_rank()),
                        0) {}

void LifetimePatternState::add(const dram::ErrorPattern& pattern) {
  for (const dram::ErrorBit& bit : pattern.bits()) {
    const std::size_t dq = bit.dq;
    const std::size_t beat = bit.beat;
    MEMFP_CHECK(dq < dq_occupancy_.size() && beat < beat_occupancy_.size())
        << "error bit outside transfer geometry";
    std::uint8_t& seen = bit_seen_[dq * static_cast<std::size_t>(beats_) + beat];
    if (seen) continue;
    seen = 1;
    ++bit_count_;
    ++dq_occupancy_[dq];
    ++beat_occupancy_[beat];
    stats_dirty_ = true;

    // Per-device weak-shape latch (the Purley rule). Bits only accumulate,
    // so once a device matches the shape the flag stays up.
    const int device = geometry_.device_of_dq(static_cast<int>(dq));
    const int lane = static_cast<int>(dq) - geometry_.device_dq_base(device);
    std::uint32_t& dq_mask = device_dq_mask_[static_cast<std::size_t>(device)];
    std::uint32_t& beat_mask =
        device_beat_mask_[static_cast<std::size_t>(device)];
    dq_mask |= 1u << lane;
    beat_mask |= 1u << beat;
    if (!purley_risky_ && std::popcount(dq_mask) >= dram::PurleyEcc::kMinDq &&
        std::popcount(beat_mask) >= dram::PurleyEcc::kMinBeats) {
      const int beat_span =
          std::bit_width(beat_mask) - 1 - std::countr_zero(beat_mask);
      if (beat_span >= dram::PurleyEcc::kMinBeatSpan) purley_risky_ = true;
    }
  }
}

AxisStats LifetimePatternState::dq_stats() const {
  if (stats_dirty_) {
    dq_stats_ = axis_stats(dq_occupancy_);
    beat_stats_ = axis_stats(beat_occupancy_);
    stats_dirty_ = false;
  }
  return dq_stats_;
}

AxisStats LifetimePatternState::beat_stats() const {
  dq_stats();  // refresh both caches
  return beat_stats_;
}

// ---- WindowState ------------------------------------------------------------

WindowState::WindowState(const PredictionWindows& windows,
                         const dram::Geometry& geometry)
    : windows_(windows),
      geometry_(geometry),
      pattern_(geometry),
      dq_count_freq_(static_cast<std::size_t>(geometry.total_dq()) + 1, 0),
      beat_count_freq_(static_cast<std::size_t>(geometry.beats) + 1, 0) {}

void WindowState::add(const dram::CeEvent& ce) {
  // Checks run before anything is stored: the time order here, the bit
  // geometry in pattern_.add, which also bounds the dq/beat counts that
  // index the histograms below.
  if (!times_.empty()) {
    MEMFP_CHECK_GE(ce.time, times_.back()) << "CEs must be time-ordered";
  }
  const std::span<const dram::ErrorBit> bits = ce.pattern.bits();
  pattern_.add(bits);

  // Appending extends the interarrival fold with exactly the operation the
  // rescanning extractor performs next, so a clean fold stays bit-exact.
  if (!times_.empty()) {
    const double gap_h = static_cast<double>(ce.time - times_.back()) /
                         static_cast<double>(kHour);
    inter_sum_ += gap_h;
    inter_sq_ += gap_h * gap_h;
    inter_min_ = std::min(inter_min_, gap_h);
  }
  if (times_.empty() || day_of(times_.back()) != day_of(ce.time)) {
    ++active_days_;
  }

  Evictee rec;
  rec.cell = pack_cell(ce.coord);
  rec.device = (ce.coord.rank << 8) | ce.coord.device;
  rec.bits = static_cast<std::uint32_t>(bits.size());
  rec.dq_count = static_cast<std::uint16_t>(ce.pattern.dq_count());
  rec.beat_count = static_cast<std::uint16_t>(ce.pattern.beat_count());
  rec.cross_device = ce.pattern.device_count(geometry_) > 1;

  if (cells_.increment(rec.cell) == 1) {
    columns_.increment(rec.cell & 0xffffff000000ffffULL);
  }
  if (rows_.increment(rec.cell >> 16) == 1) banks_.increment(rec.cell >> 40);
  devices_.increment(static_cast<std::uint64_t>(rec.device));
  ++dq_count_freq_[rec.dq_count];
  ++beat_count_freq_[rec.beat_count];
  max_dq_ub_ = std::max<int>(max_dq_ub_, rec.dq_count);
  max_beats_ub_ = std::max<int>(max_beats_ub_, rec.beat_count);
  multibit_ += rec.bits > 1;
  cross_device_ += rec.cross_device;

  times_.push_back(ce.time);
  evictees_.push_back(rec);
  for (const dram::ErrorBit& bit : bits) bits_.push_back(bit);
  ++next_seq_;
}

void WindowState::add_event(const dram::MemEvent& event) {
  if (event.type == dram::MemEventType::kCeStorm) {
    storm_events_.push_back({event.time, false});
    ++storms_;
  } else if (event.type == dram::MemEventType::kCeStormSuppressed) {
    storm_events_.push_back({event.time, true});
    ++suppressions_;
  }
}

void WindowState::evict_front() {
  const Evictee& rec = evictees_.front();
  if (cells_.decrement(rec.cell) == 0) {
    columns_.decrement(rec.cell & 0xffffff000000ffffULL);
  }
  if (rows_.decrement(rec.cell >> 16) == 0) banks_.decrement(rec.cell >> 40);
  devices_.decrement(static_cast<std::uint64_t>(rec.device));
  for (std::uint32_t i = 0; i < rec.bits; ++i) {
    pattern_.remove(bits_.front());
    bits_.pop_front();
  }
  --dq_count_freq_[rec.dq_count];
  --beat_count_freq_[rec.beat_count];
  multibit_ -= rec.bits > 1;
  cross_device_ -= rec.cross_device;
  evictees_.pop_front();

  const int day = day_of(times_.front());
  times_.pop_front();
  if (times_.empty() || day_of(times_.front()) != day) --active_days_;
  ++front_seq_;
  inter_dirty_ = true;  // the leading gap left the window
}

void WindowState::advance(SimTime t) {
  const SimTime window_start = t - windows_.observation;
  while (!times_.empty() && times_.front() <= window_start) evict_front();
  while (!storm_events_.empty() &&
         storm_events_.front().first <= window_start) {
    if (storm_events_.front().second) {
      --suppressions_;
    } else {
      --storms_;
    }
    storm_events_.pop_front();
  }

  for (int sub = 0; sub < 4; ++sub) {
    std::uint64_t seq = std::max(sub_seq_[sub], front_seq_);
    const SimTime cutoff = t - kSubWindows[sub];
    while (seq < next_seq_ &&
           times_[static_cast<std::size_t>(seq - front_seq_)] < cutoff) {
      ++seq;
    }
    sub_seq_[sub] = seq;
  }
}

void WindowState::finalize_interarrival() {
  if (inter_dirty_) refold_interarrival();
}

void WindowState::refold_interarrival() {
  // Local accumulators: the fold is a serial add chain, so keeping it out of
  // memory is what bounds its cost per retained CE.
  double sum = 0.0;
  double sq = 0.0;
  double min = 1e18;
  SimTime prev = -1;
  for (std::size_t i = 0; i < times_.size(); ++i) {
    const SimTime time = times_[i];
    if (prev >= 0) {
      const double gap_h =
          static_cast<double>(time - prev) / static_cast<double>(kHour);
      sum += gap_h;
      sq += gap_h * gap_h;
      min = std::min(min, gap_h);
    }
    prev = time;
  }
  inter_sum_ = sum;
  inter_sq_ = sq;
  inter_min_ = min;
  inter_dirty_ = false;
}

int WindowState::max_ce_dq_count() {
  while (max_dq_ub_ > 0 &&
         dq_count_freq_[static_cast<std::size_t>(max_dq_ub_)] == 0) {
    --max_dq_ub_;
  }
  return max_dq_ub_;
}

int WindowState::max_ce_beat_count() {
  while (max_beats_ub_ > 0 &&
         beat_count_freq_[static_cast<std::size_t>(max_beats_ub_)] == 0) {
    --max_beats_ub_;
  }
  return max_beats_ub_;
}

// ---- OnlineExtractorState ---------------------------------------------------

OnlineExtractorState::OnlineExtractorState(const PredictionWindows& windows,
                                           const dram::DimmConfig& config,
                                           const sim::WorkloadStats& workload,
                                           std::size_t feature_count)
    : windows_(windows),
      config_(config),
      workload_(workload),
      feature_count_(feature_count),
      lifetime_(config.geometry()),
      window_(windows, config.geometry()) {}

void OnlineExtractorState::observe_ce(const dram::CeEvent& ce) {
  pending_ces_.push_back(ce);
}

void OnlineExtractorState::observe_event(const dram::MemEvent& event) {
  pending_events_.push_back(event);
}

void OnlineExtractorState::ingest_ce_at(SimTime t, const dram::CeEvent& ce) {
  MEMFP_DCHECK(pending_ces_.empty()) << "ingest_ce_at with queued observes";
  MEMFP_DCHECK(ce.time <= t) << "ingest_ce_at of a future CE";
  // Identical fold to the t-time drain in features_at: CEs already outside
  // the observation window update only the lifetime state.
  lifetime_.add(ce);
  if (ce.time > t - windows_.observation) window_.add(ce);
}

void OnlineExtractorState::ingest_event_at(SimTime t,
                                           const dram::MemEvent& event) {
  MEMFP_DCHECK(pending_events_.empty()) << "ingest_event_at with queued observes";
  MEMFP_DCHECK(event.time <= t) << "ingest_event_at of a future event";
  if (event.time > t - windows_.observation) window_.add_event(event);
}

void OnlineExtractorState::features_at(SimTime t, std::vector<float>& out) {
  out.clear();
  if (t <= 0) return;  // no cadence tick has happened yet
  MEMFP_CHECK_GE(t, last_query_) << "features_at times must be non-decreasing";
  last_query_ = t;

  // CEs already outside the observation window at fold time can never
  // contribute to window features again (queries are non-decreasing), so
  // they update only the lifetime state. Skipping is exact: a skipped CE
  // implies every earlier record crosses the same eviction threshold below,
  // which dirties and refolds the interarrival aggregates.
  const SimTime window_start = t - windows_.observation;
  while (!pending_ces_.empty() && pending_ces_.front().time <= t) {
    const dram::CeEvent& ce = pending_ces_.front();
    lifetime_.add(ce);
    if (ce.time > window_start) window_.add(ce);
    pending_ces_.pop_front();
  }
  while (!pending_events_.empty() && pending_events_.front().time <= t) {
    if (pending_events_.front().time > window_start) {
      window_.add_event(pending_events_.front());
    }
    pending_events_.pop_front();
  }
  window_.advance(t);
  if (window_.size() == 0) return;  // no CE in the observation window
  emit(t, out);
}

std::vector<float> OnlineExtractorState::features_at(SimTime t) {
  std::vector<float> out;
  features_at(t, out);
  return out;
}

void OnlineExtractorState::emit(SimTime t, std::vector<float>& f) {
  const std::size_t window_size = window_.size();
  f.assign(feature_count_, 0.0f);
  std::size_t k = 0;

  // ---- Temporal ----
  const std::uint64_t count_1d = window_.count_1d();
  const std::uint64_t count_5d = window_size;
  f[k++] = log1pf_clamped(static_cast<double>(window_.count_1h()));
  f[k++] = log1pf_clamped(static_cast<double>(window_.count_6h()));
  f[k++] = log1pf_clamped(static_cast<double>(count_1d));
  f[k++] = log1pf_clamped(static_cast<double>(window_.count_3d()));
  f[k++] = log1pf_clamped(static_cast<double>(count_5d));

  f[k++] = static_cast<float>(window_.storms());
  f[k++] = static_cast<float>(window_.suppressions());

  window_.finalize_interarrival();
  const std::size_t inter_n = window_size - 1;
  const double inter_mean =
      inter_n > 0 ? window_.inter_sum() / inter_n : 120.0;
  const double inter_var =
      inter_n > 1 ? std::max(0.0, window_.inter_sq() / inter_n -
                                      inter_mean * inter_mean)
                  : 0.0;
  f[k++] = log1pf_clamped(inter_mean);
  f[k++] = log1pf_clamped(inter_n > 0 ? window_.inter_min() : 120.0);
  f[k++] = static_cast<float>(
      inter_mean > 0.0 ? std::sqrt(inter_var) / inter_mean : 0.0);
  f[k++] = static_cast<float>(
      std::log1p(static_cast<double>(count_1d)) -
      std::log1p(static_cast<double>(count_5d) / 5.0));
  f[k++] = static_cast<float>(
      static_cast<double>(t - lifetime_.first_ce()) /
      static_cast<double>(kDay));
  f[k++] = static_cast<float>(
      static_cast<double>(t - lifetime_.last_ce()) /
      static_cast<double>(kHour));
  f[k++] = log1pf_clamped(static_cast<double>(lifetime_.total_ces()));
  f[k++] = static_cast<float>(window_.active_days());

  // ---- Spatial (window structure + lifetime fault inference) ----
  const FaultState& faults = lifetime_.faults();
  const int dominant = window_.dominant_device_ces();
  const int max_row = window_.max_row_ces();
  f[k++] = log1pf_clamped(static_cast<double>(window_.distinct_cells()));
  f[k++] = log1pf_clamped(static_cast<double>(window_.distinct_rows()));
  f[k++] = log1pf_clamped(static_cast<double>(window_.distinct_columns()));
  f[k++] = log1pf_clamped(static_cast<double>(window_.distinct_banks()));
  f[k++] = static_cast<float>(window_.distinct_devices());
  f[k++] = static_cast<float>(faults.devices_seen());
  f[k++] = static_cast<float>(window_size > 0
                                  ? static_cast<double>(dominant) /
                                        static_cast<double>(window_size)
                                  : 0.0);
  f[k++] = log1pf_clamped(faults.cell_faults());
  f[k++] = log1pf_clamped(faults.row_faults());
  f[k++] = log1pf_clamped(faults.column_faults());
  f[k++] = log1pf_clamped(faults.bank_faults());
  f[k++] = faults.multi_device() ? 1.0f : 0.0f;
  f[k++] = faults.single_device() ? 1.0f : 0.0f;
  f[k++] = log1pf_clamped(max_row);

  // ---- Bit-level ----
  const AxisStats window_dq = window_.pattern().dq_stats();
  const AxisStats window_beat = window_.pattern().beat_stats();
  const AxisStats life_dq = lifetime_.pattern().dq_stats();
  const AxisStats life_beat = lifetime_.pattern().beat_stats();
  f[k++] = static_cast<float>(window_dq.count);
  f[k++] = static_cast<float>(window_beat.count);
  f[k++] = static_cast<float>(window_dq.max_interval);
  f[k++] = static_cast<float>(window_beat.max_interval);
  f[k++] = static_cast<float>(window_beat.span);
  f[k++] = static_cast<float>(life_dq.count);
  f[k++] = static_cast<float>(life_beat.count);
  f[k++] = static_cast<float>(life_beat.max_interval);
  f[k++] = static_cast<float>(life_beat.span);
  f[k++] = log1pf_clamped(static_cast<double>(lifetime_.pattern().bit_count()));
  f[k++] = static_cast<float>(window_.max_ce_dq_count());
  f[k++] = static_cast<float>(window_.max_ce_beat_count());
  f[k++] = static_cast<float>(static_cast<double>(window_.multibit_ces()) /
                              static_cast<double>(window_size));
  f[k++] = log1pf_clamped(window_.cross_device_ces());
  f[k++] = lifetime_.pattern().purley_risky() ? 1.0f : 0.0f;
  f[k++] = life_dq.count >= 4 && life_beat.count >= 5 ? 1.0f : 0.0f;

  // ---- Static ----
  f[k++] = static_cast<float>(config_.manufacturer);
  f[k++] = static_cast<float>(config_.process);
  f[k++] = static_cast<float>(config_.frequency_mhz) / 1000.0f;
  f[k++] = static_cast<float>(config_.capacity_gib);
  f[k++] = static_cast<float>(config_.width);

  // ---- Workload ----
  f[k++] = workload_.cpu_utilization;
  f[k++] = workload_.memory_utilization;
  f[k++] = workload_.read_write_ratio;
}

}  // namespace memfp::features
