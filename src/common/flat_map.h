// Open-addressing hash map from uint64 keys to small mapped values.
//
// The incremental extractor keeps half a dozen per-DIMM count maps that see
// one probe per CE on the serving hot path; `std::unordered_map` pays a heap
// node plus a bucket-list chase per probe there. FlatMap64 stores slots in
// one contiguous array with linear probing and backward-shift deletion, so a
// probe is a mix + a short linear scan over cache-resident slots. Iteration
// order is deliberately NOT exposed (no iterators): every consumer reads
// point lookups or scalar aggregates, which keeps the container impossible
// to misuse under the determinism contract (see the `unordered-iter` lint
// rule — there is no order here to depend on).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace memfp {

/// Finalizing 64-bit mix (splitmix64): full avalanche, so packed cell keys
/// whose entropy sits in high bits still spread across the table.
inline std::uint64_t mix_u64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

template <typename V>
class FlatMap64 {
 public:
  /// Value for `key`, default-constructing it on first access (the
  /// unordered_map::operator[] shape the extractor state uses).
  V& operator[](std::uint64_t key) {
    if ((size_ + 1) * 4 > capacity() * 3) grow();
    std::size_t i = mix_u64(key) & mask_;
    while (slots_[i].used) {
      if (slots_[i].key == key) return slots_[i].value;
      i = (i + 1) & mask_;
    }
    Slot& slot = slots_[i];
    slot.key = key;
    slot.value = V{};
    slot.used = true;
    ++size_;
    return slot.value;
  }

  /// Pointer to the mapped value, or nullptr when absent.
  V* find(std::uint64_t key) {
    if (slots_.empty()) return nullptr;
    std::size_t i = mix_u64(key) & mask_;
    while (slots_[i].used) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const V* find(std::uint64_t key) const {
    return const_cast<FlatMap64*>(this)->find(key);
  }

  /// Erases `key` (which must be present) with backward-shift compaction, so
  /// probe chains stay tombstone-free no matter how many windows slide by.
  void erase(std::uint64_t key) {
    MEMFP_CHECK(!slots_.empty()) << "erase from empty FlatMap64";
    std::size_t i = mix_u64(key) & mask_;
    while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask_;
    MEMFP_CHECK(slots_[i].used) << "erase of absent key";
    std::size_t hole = i;
    std::size_t j = (hole + 1) & mask_;
    while (slots_[j].used) {
      const std::size_t home = mix_u64(slots_[j].key) & mask_;
      // Slot j may move into the hole only if its home position does not lie
      // strictly after the hole on j's probe path.
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
      j = (j + 1) & mask_;
    }
    slots_[hole] = Slot{};  // release held resources eagerly
    --size_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  // The occupancy flag shares the slot, so a probe step reads one slot. For
  // the small mapped values here it sits in the slot's padding.
  struct Slot {
    std::uint64_t key = 0;
    V value{};
    bool used = false;
  };

  std::size_t capacity() const { return slots_.size(); }

  void grow() {
    const std::size_t cap = slots_.empty() ? 8 : capacity() * 2;
    std::vector<Slot> old_slots = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    for (Slot& slot : old_slots) {
      if (!slot.used) continue;
      std::size_t j = mix_u64(slot.key) & mask_;
      while (slots_[j].used) j = (j + 1) & mask_;
      slots_[j] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace memfp
