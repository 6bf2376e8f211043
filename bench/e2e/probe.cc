// The host speed probe (see SpeedProbe in harness.h). Each thread does the
// same fixed mix of the kinds of work the workloads do: a dependent random
// walk over a 16 MB table (cache misses), a sort, decision-tree walks over
// float rows (branchy scoring) and hash-map inserts and lookups (allocation
// and hashing). Every input is generated from fixed seeds inside the probe.
//
// The probe's buffers are mapped and unmapped directly rather than taken
// from malloc: freeing a malloc block above glibc's mmap threshold (128 KB
// at first) raises the threshold to its size, after which the workload's
// own blocks of up to that size would stay in the heap, and serve-storm's
// peak RSS grew by ~10%.
#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness.h"

namespace memfp::e2e {
namespace {

/// `count` zeroed values of T in pages of their own.
template <typename T>
class Pages {
 public:
  explicit Pages(std::size_t count) : count_(count) {
    void* p = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) std::abort();
    data_ = static_cast<T*>(p);
  }
  ~Pages() { ::munmap(data_, bytes()); }
  Pages(const Pages&) = delete;
  Pages& operator=(const Pages&) = delete;

  T* begin() { return data_; }
  T* end() { return data_ + count_; }
  T& operator[](std::size_t i) { return data_[i]; }
  std::size_t size() const { return count_; }

 private:
  std::size_t bytes() const { return count_ * sizeof(T); }
  T* data_ = nullptr;
  std::size_t count_;
};

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

std::uint64_t random_walk(std::uint64_t seed) {
  constexpr std::size_t kTable = std::size_t{1} << 21;  // 16 MB
  Pages<std::uint64_t> table(kTable);
  for (std::uint64_t& v : table) v = xorshift(seed);
  std::uint64_t at = 0;
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < 500000; ++i) {
    at = table[at & (kTable - 1)] + i;
    sum += at;
  }
  return sum;
}

std::uint64_t sort_keys(std::uint64_t seed) {
  Pages<std::uint64_t> keys(std::size_t{1} << 19);
  for (std::uint64_t& v : keys) v = xorshift(seed);
  std::sort(keys.begin(), keys.end());
  return keys[keys.size() / 3];
}

std::uint64_t walk_trees(std::uint64_t seed) {
  struct Node {
    std::uint32_t feature;
    float cut;
  };
  constexpr int kTrees = 100;
  constexpr int kNodes = (1 << 8) - 1;  // depth-8 complete trees
  constexpr int kFeatures = 32;
  constexpr int kRows = 4000;
  Pages<Node> forest(static_cast<std::size_t>(kTrees) * kNodes);
  for (Node& node : forest) {
    node.feature = static_cast<std::uint32_t>(xorshift(seed) % kFeatures);
    node.cut = static_cast<float>(xorshift(seed) % 1000) / 1000.0f;
  }
  Pages<float> rows(static_cast<std::size_t>(kRows) * kFeatures);
  for (float& v : rows) v = static_cast<float>(xorshift(seed) % 1000) / 1000.0f;
  std::uint64_t leaves = 0;
  for (int r = 0; r < kRows; ++r) {
    const float* row = &rows[static_cast<std::size_t>(r) * kFeatures];
    for (int t = 0; t < kTrees; ++t) {
      const Node* tree = &forest[static_cast<std::size_t>(t) * kNodes];
      int n = 0;
      while (n < kNodes) {
        n = 2 * n + (row[tree[n].feature] < tree[n].cut ? 1 : 2);
      }
      leaves += static_cast<std::uint64_t>(n);
    }
  }
  return leaves;
}

// At most 4096 keys, so that the bucket array stays below glibc's 128 KB
// mmap threshold (see above). Erasing keeps nodes being freed and taken.
std::uint64_t hash_counts(std::uint64_t seed) {
  constexpr std::uint64_t kKeys = 4096;
  std::unordered_map<std::uint64_t, std::uint32_t> counts;
  std::uint64_t hits = 0;
  for (int i = 0; i < 600000; ++i) {
    ++counts[xorshift(seed) % kKeys];
    const auto it = counts.find(xorshift(seed) % kKeys);
    if (it == counts.end()) continue;
    hits += it->second;
    if (it->second > 4) counts.erase(it);
  }
  return hits;
}

}  // namespace

double SpeedProbe::run() const {
  std::vector<std::uint64_t> sums(static_cast<std::size_t>(threads_));
  const std::uint64_t start = now_ns();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads_; ++t) {
    workers.emplace_back([t, &sums] {
      const std::uint64_t seed = 0x9e3779b97f4a7c15ull * (t + 1);
      sums[static_cast<std::size_t>(t)] = random_walk(seed) + sort_keys(seed) +
                                          walk_trees(seed) + hash_counts(seed);
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double seconds = static_cast<double>(now_ns() - start) / 1e9;
  // Keeps the work observable, so the compiler cannot drop it.
  volatile std::uint64_t sink = 0;
  for (const std::uint64_t sum : sums) sink = sink + sum;
  return seconds;
}

}  // namespace memfp::e2e
