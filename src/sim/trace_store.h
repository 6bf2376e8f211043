// Compact binary columnar trace store: the on-disk spill format that lets a
// fleet scale past resident memory (ROADMAP item 1, "million-DIMM fleets").
//
// A *shard* is one append-only file holding a contiguous id-range of observed
// DIMMs. Each DIMM is a framed record — varint length prefix + a compact
// payload with delta-encoded (varint) timestamps, packed DQ/beat error-bit
// bitmaps and single-byte enum fields — followed by a shard index (record
// offsets) and a checksummed footer, so a writer only ever appends and a
// reader can either stream records in order or jump straight to one DIMM.
//
//   header   magic "MFTSHRD1", version, platform, horizon
//   records  [varint len | payload] per observed DIMM, ascending DimmId
//   index    varint count, varint offset deltas (into the record region)
//   footer   index offset, FNV-1a of the record region, magic "MFTSEND1"
//
// The payload round-trips DimmTrace byte-exactly: decode(encode(t)) compares
// equal field-for-field, and re-encoding reproduces the identical bytes (the
// golden-hash contract in tests/test_trace_store.cc). Fleet-level fields
// (platform, horizon) live in the header, not in every record.
//
// Corrupt or truncated shards fail cleanly: every read is bounds-checked and
// dies with a MEMFP_CHECK diagnostic instead of undefined behaviour.
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/time.h"
#include "sim/trace.h"

namespace memfp::sim {

// ---------------------------------------------------------------------------
// FNV-1a folding — the project's canonical content-hash primitive for the
// determinism contracts (sharded path == in-memory path, byte for byte).
// ---------------------------------------------------------------------------

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data,
                                 std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

/// Appends the framed payload of one DIMM (no length prefix) to `out`.
/// Fleet-level fields (platform, horizon) are not encoded; pass them through
/// the shard header. Preconditions: event times sorted ascending, error-bit
/// beats < 8 (DDR4 burst), as the simulator guarantees.
void encode_dimm_record(const DimmTrace& trace, std::vector<std::uint8_t>& out);

/// Decodes one payload produced by encode_dimm_record. The whole span must be
/// consumed exactly; any truncation or garbage dies with MEMFP_CHECK.
/// `context` is appended verbatim to every diagnostic (TraceReader passes
/// " in <shard path> (record <i>)"), so a corrupt shard names itself.
DimmTrace decode_dimm_record(std::span<const std::uint8_t> payload,
                             dram::Platform platform,
                             std::string_view context = {});

/// Canonical content hash of one DIMM trace: FNV-1a over its encoded payload.
/// Both the resident and the decoded-from-disk representation of the same
/// DIMM hash identically, which is what the driver's byte-identity checks and
/// the codec golden tests fold over.
std::uint64_t trace_content_hash(const DimmTrace& trace);

// ---------------------------------------------------------------------------
// Shard files
// ---------------------------------------------------------------------------

struct ShardStats {
  std::size_t dimms = 0;
  std::uint64_t ce_records = 0;
  std::uint64_t mem_events = 0;
  std::uint64_t ue_records = 0;
  std::uint64_t suppressed_ces = 0;
  std::uint64_t file_bytes = 0;

  std::uint64_t raw_records() const {
    return ce_records + mem_events + ue_records;
  }
  void add(const ShardStats& other);
};

/// Append-only shard writer. Records must be appended in ascending DimmId
/// order (the natural shard order); finish() seals index + footer. A writer
/// that is destroyed without finish() leaves an unreadable file — readers
/// reject it via the missing footer magic.
///
/// A batch append encodes and content-hashes its records in parallel on the
/// global ThreadPool, one slot per record and a bounded window of records at
/// a time, then writes each window's frames and folds the region checksum
/// serially in record order, so the file bytes do not depend on the thread
/// count.
class ShardWriter {
 public:
  ShardWriter(const std::string& path, dram::Platform platform,
              SimTime horizon);
  ShardWriter(const ShardWriter&) = delete;
  ShardWriter& operator=(const ShardWriter&) = delete;
  ~ShardWriter();

  /// Appends the records in order and returns their trace_content_hash
  /// values (computed from the bytes just encoded, so callers folding
  /// determinism hashes don't pay a second encode).
  std::vector<std::uint64_t> append(std::span<const DimmTrace> traces);
  /// One-record append: the same frame writer as the batch, without the
  /// pool hand-off or the hash vector.
  std::uint64_t append(const DimmTrace& trace);
  /// Seals the shard and returns its stats. Must be called exactly once.
  ShardStats finish();

 private:
  // Writes one encoded record's frame (length varint + payload) in record
  // order and folds it into the region checksum and the stats.
  void write_frame(const DimmTrace& trace,
                   const std::vector<std::uint8_t>& payload);

  std::ofstream out_;
  std::string path_;
  ShardStats stats_;
  std::vector<std::uint64_t> offsets_;  // record starts, relative to region
  // Encode buffers, one per record of an append window, reused across
  // windows and calls; prefix_ holds one frame's length varint.
  std::vector<std::vector<std::uint8_t>> payloads_;
  std::vector<std::uint8_t> prefix_;
  std::uint64_t region_bytes_ = 0;
  std::uint64_t region_hash_ = kFnvOffset;
  bool finished_ = false;
};

/// Streaming shard reader: loads the (compact) encoded shard into memory in
/// one sized read, verifies magic/version/checksum/index bounds, then decodes
/// one DIMM at a time into the existing DimmTrace type. read_dimm is const and touches only
/// immutable state, so concurrent decodes from one reader are safe — the
/// driver fans extraction out across a shard's DIMMs this way.
class TraceReader {
 public:
  explicit TraceReader(const std::string& path);

  dram::Platform platform() const { return platform_; }
  SimTime horizon() const { return horizon_; }
  std::size_t dimm_count() const { return records_.size(); }
  std::uint64_t file_bytes() const { return file_bytes_; }
  const std::string& path() const { return path_; }

  /// Decodes the index-th record of the shard. Thread-safe. Decode
  /// diagnostics carry the shard path and record index.
  DimmTrace read_dimm(std::size_t index) const;

 private:
  std::string path_;
  dram::Platform platform_ = dram::Platform::kIntelPurley;
  SimTime horizon_ = 0;
  std::uint64_t file_bytes_ = 0;
  std::vector<std::uint8_t> region_;  // record region only
  std::vector<std::pair<std::uint64_t, std::uint64_t>> records_;  // off, len
};

/// Canonical shard file name inside a store directory: shard-%05zu.mft.
std::string shard_path(const std::string& dir, std::size_t index);

/// All shard files of a store directory, sorted by shard index.
std::vector<std::string> list_shards(const std::string& dir);

}  // namespace memfp::sim
