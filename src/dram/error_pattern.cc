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
  IndexSet(std::span<const ErrorBit> bits, Extract extract) {
    for (const ErrorBit& bit : bits) {
      const auto value = static_cast<unsigned>(extract(bit));
      std::uint64_t& word = words_[value >> 6];
      const std::uint64_t mask = std::uint64_t{1} << (value & 63);
      // Counted as members arrive: a generic x86-64 build has no popcnt
      // instruction, and std::popcount becomes a libgcc call per word.
      count_ += (word & mask) == 0;
      word |= mask;
    }
  }

  int count() const { return count_; }

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
  int count_ = 0;
};

int dq_of(const ErrorBit& bit) { return bit.dq; }
int beat_of(const ErrorBit& bit) { return bit.beat; }

}  // namespace

ErrorPattern::ErrorPattern(std::vector<ErrorBit> bits) {
  std::sort(bits.begin(), bits.end());
  bits.erase(std::unique(bits.begin(), bits.end()), bits.end());
  if (bits.size() > kInline) {
    spill_ = std::move(bits);
    return;
  }
  std::copy(bits.begin(), bits.end(), inline_.begin());
  size_ = static_cast<std::uint32_t>(bits.size());
}

void ErrorPattern::add(ErrorBit bit) {
  if (!spill_.empty()) {
    const auto it = std::lower_bound(spill_.begin(), spill_.end(), bit);
    if (it == spill_.end() || *it != bit) spill_.insert(it, bit);
    return;
  }
  ErrorBit* const first = inline_.data();
  ErrorBit* const last = first + size_;
  ErrorBit* const it = std::lower_bound(first, last, bit);
  if (it != last && *it == bit) return;
  if (size_ < kInline) {
    std::copy_backward(it, last, last + 1);
    *it = bit;
    ++size_;
    return;
  }
  // One bit past the inline capacity: every bit moves to the spill.
  spill_.reserve(kInline + 1);
  spill_.assign(first, it);
  spill_.push_back(bit);
  spill_.insert(spill_.end(), it, last);
  size_ = 0;
}

bool ErrorPattern::operator==(const ErrorPattern& other) const {
  return std::ranges::equal(bits(), other.bits());
}

int ErrorPattern::dq_count() const { return IndexSet(bits(), dq_of).count(); }

int ErrorPattern::beat_count() const {
  return IndexSet(bits(), beat_of).count();
}

int ErrorPattern::max_dq_interval() const {
  return IndexSet(bits(), dq_of).max_gap();
}

int ErrorPattern::max_beat_interval() const {
  return IndexSet(bits(), beat_of).max_gap();
}

int ErrorPattern::beat_span() const { return IndexSet(bits(), beat_of).span(); }

int ErrorPattern::dq_span() const { return IndexSet(bits(), dq_of).span(); }

std::vector<int> ErrorPattern::devices(const Geometry& geometry) const {
  std::vector<int> values;
  for (const ErrorBit& bit : bits()) {
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
  for (const ErrorBit& bit : bits()) {
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
  for (const ErrorBit& bit : other.bits()) add(bit);
}

}  // namespace memfp::dram
