// Bit-level error pattern of one memory transfer: which (DQ lane, beat)
// positions carried wrong data. This is the object the paper's Fig 5
// statistics (error DQ/beat counts and intervals) and the ECC schemes
// operate on.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "dram/geometry.h"

namespace memfp::dram {

/// One flipped bit position within a transfer.
struct ErrorBit {
  std::uint8_t dq = 0;    // DQ lane index, [0, total_dq)
  std::uint8_t beat = 0;  // beat index, [0, beats)

  bool operator==(const ErrorBit&) const = default;
  auto operator<=>(const ErrorBit&) const = default;
};

/// Set of flipped bits in one transfer. Deduplicated and kept sorted so
/// pattern statistics are deterministic.
///
/// Up to kInline bits are stored inline, so a simulated or decoded CE costs
/// no heap allocation: no simulated transfer errs on more than 6 bits. Only
/// a pattern that outgrows that (a DIMM-lifetime map, a hostile decode)
/// moves its bits to a heap spill.
class ErrorPattern {
 public:
  static constexpr std::size_t kInline = 6;

  ErrorPattern() = default;
  explicit ErrorPattern(std::vector<ErrorBit> bits);

  void add(ErrorBit bit);
  bool empty() const { return bit_count() == 0; }
  std::size_t bit_count() const {
    return spill_.empty() ? size_ : spill_.size();
  }
  std::span<const ErrorBit> bits() const {
    if (spill_.empty()) return {inline_.data(), size_};
    return spill_;
  }

  /// Number of distinct DQ lanes carrying errors.
  int dq_count() const;
  /// Number of distinct beats carrying errors.
  int beat_count() const;
  /// Largest distance between consecutive distinct error DQs; 0 when fewer
  /// than two lanes err. (Paper Fig 5 "DQ interval".)
  int max_dq_interval() const;
  /// Largest distance between consecutive distinct error beats; 0 when fewer
  /// than two beats err. (Paper Fig 5 "beat interval".)
  int max_beat_interval() const;
  /// Total span between the outermost error beats (0 when <2 beats).
  int beat_span() const;
  /// Total span between the outermost error DQs (0 when <2 lanes).
  int dq_span() const;

  /// Distinct devices touched, under the given geometry.
  std::vector<int> devices(const Geometry& geometry) const;
  int device_count(const Geometry& geometry) const;
  bool single_device(const Geometry& geometry) const;

  /// Merges another pattern's bits into this one (used to accumulate a
  /// DIMM-lifetime error-bit map, as [30] does).
  void merge(const ErrorPattern& other);

  bool operator==(const ErrorPattern& other) const;

 private:
  // The bits, sorted and unique, live either in inline_[0, size_) with
  // spill_ empty, or all in spill_ with size_ 0. "Spilled" means "spill_ is
  // non-empty", so the defaulted move leaves a moved-from pattern empty.
  std::array<ErrorBit, kInline> inline_{};
  std::uint32_t size_ = 0;
  std::vector<ErrorBit> spill_;
};

}  // namespace memfp::dram
