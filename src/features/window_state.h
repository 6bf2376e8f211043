// Incremental sliding-window feature state.
//
// The pre-incremental extractor rescanned every CE in the observation window
// at every cadence tick — O(ticks × window) with fresh hash containers per
// tick. The classes here replace that with add/evict updates so one trace
// costs O(events) amortized, while producing feature values byte-identical
// to the rescanning implementation (enforced by the golden-equivalence suite
// in tests/test_extractor_incremental.cc):
//
//  - Integer aggregates (counts, distinct cardinalities, max-of-counts) are
//    exactly decremental: count-decrement maps with erase-on-zero, plus a
//    count-frequency histogram where a maximum is read (a single ±1 update
//    moves the max by at most one, so it is maintained in O(1)).
//  - Aggregates over a coarser level move only on transitions of the finer
//    one: a column is present while any of its cells is, a bank while any of
//    its rows is, and distinct days are the day boundaries along the
//    time-ordered window. A repeated cell therefore touches three maps on
//    add and three on evict.
//  - Bit-level aggregates use dense (DQ × beat) occupancy arrays; interval /
//    span statistics are recomputed from the ≤ total_dq + beats occupancy
//    axes at emit time, which is exact and O(80).
//  - Floating-point interarrival folds (sum, sum of squares, min of gap
//    hours) are the one place decremental math is NOT bit-exact, because
//    double addition is non-associative. They use a rescan-on-evict hybrid:
//    appending a CE extends the fold with the same left-to-right operation
//    sequence the rescanning code performs, so the fold stays bit-exact
//    until an eviction invalidates it; the next emit then refolds the gaps
//    of the surviving window once.
//
// The window keeps its CEs in three FIFO rings in the same order: the times
// (all that eviction, the sub-window cursors and the interarrival refold
// read), a compact eviction record per CE, and the error bits of every CE
// back to back. Aggregates live in open-addressing FlatMap64s.
//
// The lifetime half needs no eviction: LifetimeState folds each CE into the
// FaultState of fault_inference.h (the one fault-mode inference, which Fig 4
// and the campaign's attribution fold too) and into a monotone bit map.
//
// OnlineExtractorState composes these with the lifetime state into the
// streaming serving engine: a per-DIMM object that consumes appended CE /
// memory events and answers features_at(t) for non-decreasing t with no
// trace copy and no extractor reconstruction.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/time.h"
#include "dram/events.h"
#include "dram/geometry.h"
#include "features/fault_inference.h"
#include "features/windows.h"
#include "sim/trace.h"

namespace memfp::features {

/// Sliding multiset of keys: O(1) increment/decrement and distinct-key
/// count. Both updates return the key's new multiplicity, so callers can
/// act on a key entering (1) or leaving (0) the set.
class SlidingCountMap {
 public:
  int increment(std::uint64_t key) { return ++counts_[key]; }
  int decrement(std::uint64_t key);
  std::size_t distinct() const { return counts_.size(); }

 private:
  FlatMap64<int> counts_;
};

/// SlidingCountMap plus the exact maximum multiplicity, via a
/// count-frequency histogram (one ±1 step moves the max by at most one).
class SlidingMaxCountMap {
 public:
  int increment(std::uint64_t key);
  int decrement(std::uint64_t key);
  std::size_t distinct() const { return counts_.distinct(); }
  int max_count() const { return max_; }

 private:
  SlidingCountMap counts_;
  std::vector<std::int64_t> freq_;  // freq_[c] = #keys with multiplicity c
  int max_ = 0;
};

/// Distinct count / interval statistics of one pattern axis (DQ lanes or
/// beats), computed from a dense occupancy array. Matches the sorted-distinct
/// logic of dram::ErrorPattern exactly.
struct AxisStats {
  int count = 0;
  int max_interval = 0;
  int span = 0;
};

AxisStats axis_stats(const std::vector<int>& occupancy);

/// Power-of-two FIFO ring: element i (0 = oldest) lives at
/// slots_[(head_ + i) & mask_]. Growth doubles the buffer and unwraps the
/// live elements in order.
template <typename T>
class Ring {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & mask_];
  }
  const T& front() const { return slots_[head_]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & mask_] = value;
    ++size_;
  }
  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }

 private:
  void grow() {
    std::vector<T> grown(slots_.empty() ? 8 : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) grown[i] = (*this)[i];
    slots_ = std::move(grown);
    head_ = 0;
    mask_ = slots_.size() - 1;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

/// Union of the error-bit patterns currently inside the window, maintained
/// as per-(DQ, beat) multiplicities so evictions are exact.
class WindowPatternState {
 public:
  explicit WindowPatternState(const dram::Geometry& geometry);

  /// Checks every bit against the transfer geometry before counting it.
  void add(std::span<const dram::ErrorBit> bits);
  void remove(dram::ErrorBit bit) {
    const std::size_t dq = bit.dq;
    const std::size_t beat = bit.beat;
    if (--bit_counts_[dq * static_cast<std::size_t>(beats_) + beat] == 0) {
      --dq_occupancy_[dq];
      --beat_occupancy_[beat];
    }
  }

  AxisStats dq_stats() const { return axis_stats(dq_occupancy_); }
  AxisStats beat_stats() const { return axis_stats(beat_occupancy_); }

 private:
  int beats_;
  std::vector<int> bit_counts_;      // (dq * beats_ + beat) -> multiplicity
  std::vector<int> dq_occupancy_;    // #active (dq, beat) cells per DQ
  std::vector<int> beat_occupancy_;  // #active (dq, beat) cells per beat
};

/// Lifetime (monotone) error-bit accumulation: the DIMM's merged bit map
/// plus the per-device weak-shape latch. Bits only ever arrive, so the
/// risky-shape flags latch and the axis statistics are cached until a new
/// bit lands.
class LifetimePatternState {
 public:
  explicit LifetimePatternState(const dram::Geometry& geometry);

  void add(const dram::ErrorPattern& pattern);

  int bit_count() const { return bit_count_; }
  AxisStats dq_stats() const;
  AxisStats beat_stats() const;
  /// Any single device accumulated the shape dram::PurleyEcc cannot correct
  /// (>= kMinDq DQs, >= kMinBeats beats, beat span >= kMinBeatSpan) — the
  /// Purley single-chip risky shape.
  bool purley_risky() const { return purley_risky_; }

 private:
  dram::Geometry geometry_;
  int beats_;
  std::vector<std::uint8_t> bit_seen_;  // (dq * beats_ + beat) -> 0/1
  std::vector<int> dq_occupancy_;
  std::vector<int> beat_occupancy_;
  std::vector<std::uint32_t> device_dq_mask_;    // lanes within the device
  std::vector<std::uint32_t> device_beat_mask_;  // beats within the device
  int bit_count_ = 0;
  bool purley_risky_ = false;
  mutable bool stats_dirty_ = true;
  mutable AxisStats dq_stats_;
  mutable AxisStats beat_stats_;
};

/// Lifetime (append-only) state of one DIMM's CE stream: the inferred fault
/// structure (the FaultState Fig 4 and the campaign's attribution also fold),
/// the merged error-bit map and the first/last CE times.
class LifetimeState {
 public:
  explicit LifetimeState(const dram::Geometry& geometry) : pattern_(geometry) {}

  void add(const dram::CeEvent& ce) {
    faults_.add(ce.coord);
    pattern_.add(ce.pattern);
    if (first_ce_ < 0) first_ce_ = ce.time;
    last_ce_ = ce.time;
    ++total_ces_;
  }

  const FaultState& faults() const { return faults_; }
  const LifetimePatternState& pattern() const { return pattern_; }
  SimTime first_ce() const { return first_ce_; }
  SimTime last_ce() const { return last_ce_; }
  std::uint64_t total_ces() const { return total_ces_; }

 private:
  FaultState faults_;
  LifetimePatternState pattern_;
  SimTime first_ce_ = -1;
  SimTime last_ce_ = -1;
  std::uint64_t total_ces_ = 0;
};

/// The trailing observation window over one DIMM's CE stream. CEs are added
/// in time order; advance(t) evicts CEs that left the window and slides the
/// sub-window (1h/6h/1d/3d) boundaries. All aggregates the extractor reads
/// at a tick are O(1) (or O(total_dq + beats)) at emit time.
class WindowState {
 public:
  WindowState(const PredictionWindows& windows, const dram::Geometry& geometry);

  /// Folds one CE (time-ordered) into the window aggregates.
  void add(const dram::CeEvent& ce);
  /// Folds one memory event (time-ordered); only storm / suppression events
  /// participate in features.
  void add_event(const dram::MemEvent& event);
  /// Slides the window end to t: evicts CEs/events at or before
  /// t - observation and advances the sub-window count boundaries.
  void advance(SimTime t);

  std::size_t size() const { return times_.size(); }
  std::uint64_t count_1h() const { return counts_since(0); }
  std::uint64_t count_6h() const { return counts_since(1); }
  std::uint64_t count_1d() const { return counts_since(2); }
  std::uint64_t count_3d() const { return counts_since(3); }
  int storms() const { return storms_; }
  int suppressions() const { return suppressions_; }
  std::size_t active_days() const { return active_days_; }

  /// Refolds the interarrival aggregates if an eviction invalidated them,
  /// then reads them. Call only at emit time.
  void finalize_interarrival();
  double inter_sum() const { return inter_sum_; }
  double inter_sq() const { return inter_sq_; }
  double inter_min() const { return inter_min_; }

  std::size_t distinct_cells() const { return cells_.distinct(); }
  std::size_t distinct_rows() const { return rows_.distinct(); }
  std::size_t distinct_columns() const { return columns_.distinct(); }
  std::size_t distinct_banks() const { return banks_.distinct(); }
  std::size_t distinct_devices() const { return devices_.distinct(); }
  int dominant_device_ces() const { return devices_.max_count(); }
  /// rows_ is keyed by the same cell >> 16 prefix the per-row CE multiset
  /// would use, so its max multiplicity is the max-CEs-in-one-row aggregate.
  int max_row_ces() const { return rows_.max_count(); }

  const WindowPatternState& pattern() const { return pattern_; }
  int max_ce_dq_count();
  int max_ce_beat_count();
  int multibit_ces() const { return multibit_; }
  int cross_device_ces() const { return cross_device_; }

 private:
  /// What evicting a CE needs besides its time, with the derived values
  /// precomputed once at add time. Its error bits are the next `bits`
  /// entries of bits_.
  struct Evictee {
    std::uint64_t cell = 0;
    std::int32_t device = 0;
    std::uint32_t bits = 0;
    std::uint16_t dq_count = 0;    // distinct 8-bit DQ indices: <= 256
    std::uint16_t beat_count = 0;  // distinct 8-bit beat indices: <= 256
    bool cross_device = false;
  };

  std::uint64_t counts_since(int sub) const {
    return next_seq_ - sub_seq_[sub];
  }
  static int day_of(SimTime time) { return static_cast<int>(time / kDay); }
  void evict_front();
  void refold_interarrival();

  PredictionWindows windows_;
  dram::Geometry geometry_;
  // The window's CEs, oldest first, split into three rings of one order.
  Ring<SimTime> times_;
  Ring<Evictee> evictees_;
  Ring<dram::ErrorBit> bits_;
  std::uint64_t front_seq_ = 0;  // sequence number of the oldest CE
  std::uint64_t next_seq_ = 0;   // sequence number of the next add
  // First CE inside each trailing sub-window (1h / 6h / 1d / 3d).
  std::uint64_t sub_seq_[4] = {0, 0, 0, 0};
  // Days are non-decreasing along the window, so the distinct days are the
  // runs of equal days: this counts the day boundaries plus one.
  std::size_t active_days_ = 0;

  Ring<std::pair<SimTime, bool>> storm_events_;  // (time, suppressed)
  int storms_ = 0;
  int suppressions_ = 0;

  double inter_sum_ = 0.0;
  double inter_sq_ = 0.0;
  double inter_min_ = 1e18;
  bool inter_dirty_ = false;

  SlidingCountMap cells_;
  SlidingMaxCountMap rows_;  // doubles as the per-row CE multiset (max_row_ces)
  SlidingCountMap columns_;  // keys: columns; counts: present cells
  SlidingCountMap banks_;    // keys: banks; counts: present rows
  SlidingMaxCountMap devices_;

  WindowPatternState pattern_;
  std::vector<std::int64_t> dq_count_freq_;    // per-CE dq_count histogram
  std::vector<std::int64_t> beat_count_freq_;  // per-CE beat_count histogram
  int max_dq_ub_ = 0;    // upper bound, tightened lazily at emit
  int max_beats_ub_ = 0;
  int multibit_ = 0;
  int cross_device_ = 0;
};

/// Streaming per-DIMM feature engine: the persistent online serving state.
/// Feed telemetry with observe_ce / observe_event (time-ordered); query with
/// features_at(t) for non-decreasing t. Events appended with a timestamp
/// beyond the queried t stay pending — a feature vector at time t remains a
/// pure function of events at time <= t (the leakage discipline).
class OnlineExtractorState {
 public:
  OnlineExtractorState(const PredictionWindows& windows,
                       const dram::DimmConfig& config,
                       const sim::WorkloadStats& workload,
                       std::size_t feature_count);

  void observe_ce(const dram::CeEvent& ce);
  void observe_event(const dram::MemEvent& event);

  /// Fast-path ingestion for tick-driven callers (the serving engine) that
  /// already know the next query time t: folds the event immediately, with
  /// the same fold the t-time drain of the pending queue would apply. The
  /// caller must guarantee event.time <= t, t not below any earlier query,
  /// and empty pending queues (don't mix with observe_* mid-stream).
  void ingest_ce_at(SimTime t, const dram::CeEvent& ce);
  void ingest_event_at(SimTime t, const dram::MemEvent& event);

  /// Cheap liveness probe: a stream with an empty window and no pending
  /// telemetry is guaranteed to score empty at any later tick, so tick
  /// drivers can skip it without touching the cold state.
  std::size_t window_ces() const { return window_.size(); }
  bool has_pending() const {
    return !pending_ces_.empty() || !pending_events_.empty();
  }

  /// Features at time t, or an empty vector when the observation window
  /// holds no CE (or t <= 0 — no cadence tick has happened). t must be
  /// non-decreasing across calls.
  void features_at(SimTime t, std::vector<float>& out);
  std::vector<float> features_at(SimTime t);

 private:
  void emit(SimTime t, std::vector<float>& out);

  PredictionWindows windows_;
  dram::DimmConfig config_;
  sim::WorkloadStats workload_;
  std::size_t feature_count_;
  LifetimeState lifetime_;
  WindowState window_;
  std::deque<dram::CeEvent> pending_ces_;
  std::deque<dram::MemEvent> pending_events_;
  SimTime last_query_ = 0;
};

}  // namespace memfp::features
