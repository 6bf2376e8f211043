#include "dram/error_pattern.h"

#include <algorithm>
#include <array>
#include <bit>

namespace memfp::dram {
namespace {

/// Distinct values of an 8-bit index (DQ lane, beat or device) as a 256-bit
/// mask, so the pattern statistics take one pass and no allocation.
class IndexSet {
 public:
  template <typename Extract>
  IndexSet(const std::vector<ErrorBit>& bits, Extract extract) {
    for (const ErrorBit& bit : bits) {
      const auto value = static_cast<unsigned>(extract(bit));
      words_[value >> 6] |= std::uint64_t{1} << (value & 63);
    }
  }

  int count() const {
    int n = 0;
    for (const std::uint64_t word : words_) n += std::popcount(word);
    return n;
  }

  /// Largest distance between consecutive members; 0 when fewer than two.
  int max_gap() const {
    int gap = 0;
    int previous = -1;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t word = words_[w]; word != 0; word &= word - 1) {
        const int value = static_cast<int>(w * 64) + std::countr_zero(word);
        if (previous >= 0) gap = std::max(gap, value - previous);
        previous = value;
      }
    }
    return gap;
  }

  /// Distance between the outermost members; 0 when fewer than two.
  int span() const {
    int lowest = -1;
    int highest = -1;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (words_[w] == 0) continue;
      const int base = static_cast<int>(w * 64);
      if (lowest < 0) lowest = base + std::countr_zero(words_[w]);
      highest = base + 63 - std::countl_zero(words_[w]);
    }
    return lowest < 0 ? 0 : highest - lowest;
  }

 private:
  std::array<std::uint64_t, 4> words_{};
};

int dq_of(const ErrorBit& bit) { return bit.dq; }
int beat_of(const ErrorBit& bit) { return bit.beat; }

}  // namespace

ErrorPattern::ErrorPattern(std::vector<ErrorBit> bits) : bits_(std::move(bits)) {
  std::sort(bits_.begin(), bits_.end());
  bits_.erase(std::unique(bits_.begin(), bits_.end()), bits_.end());
}

void ErrorPattern::add(ErrorBit bit) {
  const auto it = std::lower_bound(bits_.begin(), bits_.end(), bit);
  if (it != bits_.end() && *it == bit) return;
  bits_.insert(it, bit);
}

int ErrorPattern::dq_count() const { return IndexSet(bits_, dq_of).count(); }

int ErrorPattern::beat_count() const {
  return IndexSet(bits_, beat_of).count();
}

int ErrorPattern::max_dq_interval() const {
  return IndexSet(bits_, dq_of).max_gap();
}

int ErrorPattern::max_beat_interval() const {
  return IndexSet(bits_, beat_of).max_gap();
}

int ErrorPattern::beat_span() const { return IndexSet(bits_, beat_of).span(); }

int ErrorPattern::dq_span() const { return IndexSet(bits_, dq_of).span(); }

std::vector<int> ErrorPattern::devices(const Geometry& geometry) const {
  std::vector<int> values;
  for (const ErrorBit& bit : bits_) {
    // Bits are sorted by lane and a device owns adjacent lanes, so equal
    // devices are contiguous.
    const int device = geometry.device_of_dq(static_cast<int>(bit.dq));
    if (values.empty() || values.back() != device) values.push_back(device);
  }
  return values;
}

int ErrorPattern::device_count(const Geometry& geometry) const {
  int count = 0;
  int previous = -1;
  for (const ErrorBit& bit : bits_) {
    const int device = geometry.device_of_dq(static_cast<int>(bit.dq));
    if (device != previous) ++count;
    previous = device;
  }
  return count;
}

bool ErrorPattern::single_device(const Geometry& geometry) const {
  return device_count(geometry) == 1;
}

void ErrorPattern::merge(const ErrorPattern& other) {
  for (const ErrorBit& bit : other.bits_) add(bit);
}

}  // namespace memfp::dram
