#include "sim/trace_store.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "common/check.h"
#include "common/thread_pool.h"
#include "sim/shard_format.h"

namespace memfp::sim {
namespace {

// ---------------------------------------------------------------------------
// Little-endian primitives (explicit, so shards are portable across hosts)
// ---------------------------------------------------------------------------

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xff);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xff);
}

/// LEB128 unsigned varint: 7 payload bits per byte, high bit = continuation.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

// ---------------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------------

void encode_coord(const dram::CellCoord& coord, std::vector<std::uint8_t>& out) {
  MEMFP_DCHECK(coord.rank >= 0 && coord.device >= 0 && coord.bank >= 0 &&
               coord.row >= 0 && coord.column >= 0);
  put_varint(out, static_cast<std::uint64_t>(coord.rank));
  put_varint(out, static_cast<std::uint64_t>(coord.device));
  put_varint(out, static_cast<std::uint64_t>(coord.bank));
  put_varint(out, static_cast<std::uint64_t>(coord.row));
  put_varint(out, static_cast<std::uint64_t>(coord.column));
}

/// Packed DQ/beat bitmap: the pattern's sorted (dq, beat) bits grouped by DQ
/// lane — delta-encoded lane index + one byte whose bit b means "beat b
/// erred". One byte covers the full DDR4 burst (8 beats), so a typical
/// single-lane pattern costs 3 bytes total.
void encode_pattern(const dram::ErrorPattern& pattern,
                    std::vector<std::uint8_t>& out) {
  const std::span<const dram::ErrorBit> bits = pattern.bits();
  std::uint64_t groups = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (i == 0 || bits[i].dq != bits[i - 1].dq) ++groups;
  }
  put_varint(out, groups);
  int prev_dq = 0;
  std::size_t i = 0;
  while (i < bits.size()) {
    const int dq = bits[i].dq;
    std::uint8_t mask = 0;
    for (; i < bits.size() && bits[i].dq == dq; ++i) {
      MEMFP_CHECK_LT(bits[i].beat, 8)
          << "trace store: beat index exceeds the 8-beat bitmap";
      mask = static_cast<std::uint8_t>(mask | (1u << bits[i].beat));
    }
    put_varint(out, static_cast<std::uint64_t>(dq - prev_dq));
    out.push_back(mask);
    prev_dq = dq;
  }
}

void encode_f32(float value, std::vector<std::uint8_t>& out) {
  put_u32(out, std::bit_cast<std::uint32_t>(value));
}

}  // namespace

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

void encode_dimm_record(const DimmTrace& trace,
                        std::vector<std::uint8_t>& out) {
  put_varint(out, trace.id);
  put_varint(out, trace.server_id);
  out.push_back(static_cast<std::uint8_t>(trace.config.manufacturer));
  out.push_back(static_cast<std::uint8_t>(trace.config.process));
  out.push_back(static_cast<std::uint8_t>(trace.config.width));
  put_varint(out, static_cast<std::uint64_t>(trace.config.frequency_mhz));
  put_varint(out, static_cast<std::uint64_t>(trace.config.capacity_gib));
  put_varint(out, trace.config.part_number.size());
  out.insert(out.end(), trace.config.part_number.begin(),
             trace.config.part_number.end());
  encode_f32(trace.workload.cpu_utilization, out);
  encode_f32(trace.workload.memory_utilization, out);
  encode_f32(trace.workload.read_write_ratio, out);

  put_varint(out, trace.ces.size());
  SimTime prev = 0;
  for (const dram::CeEvent& ce : trace.ces) {
    MEMFP_DCHECK(ce.time >= prev) << "CE log must be time-sorted";
    put_varint(out, static_cast<std::uint64_t>(ce.time - prev));
    prev = ce.time;
    encode_coord(ce.coord, out);
    encode_pattern(ce.pattern, out);
  }

  put_varint(out, trace.events.size());
  prev = 0;
  for (const dram::MemEvent& event : trace.events) {
    MEMFP_DCHECK(event.time >= prev) << "event log must be time-sorted";
    put_varint(out, static_cast<std::uint64_t>(event.time - prev));
    prev = event.time;
    out.push_back(static_cast<std::uint8_t>(event.type));
  }

  put_varint(out, trace.suppressed_ce_count);
  out.push_back(trace.ue.has_value() ? 1 : 0);
  if (trace.ue) {
    MEMFP_DCHECK(trace.ue->time >= 0);
    put_varint(out, static_cast<std::uint64_t>(trace.ue->time));
    encode_coord(trace.ue->coord, out);
    encode_pattern(trace.ue->pattern, out);
    out.push_back(trace.ue->had_prior_ce ? 1 : 0);
  }
}

std::uint64_t trace_content_hash(const DimmTrace& trace) {
  std::vector<std::uint8_t> bytes;
  encode_dimm_record(trace, bytes);
  return fnv1a_bytes(kFnvOffset, bytes.data(), bytes.size());
}

void ShardStats::add(const ShardStats& other) {
  dimms += other.dimms;
  ce_records += other.ce_records;
  mem_events += other.mem_events;
  ue_records += other.ue_records;
  suppressed_ces += other.suppressed_ces;
  file_bytes += other.file_bytes;
}

// ---------------------------------------------------------------------------
// ShardWriter
// ---------------------------------------------------------------------------

ShardWriter::ShardWriter(const std::string& path, dram::Platform platform,
                         SimTime horizon)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path) {
  MEMFP_CHECK(out_.good()) << "trace store: cannot open " << path
                           << " for writing";
  MEMFP_CHECK_GE(horizon, 0);
  std::vector<std::uint8_t> header;
  header.insert(header.end(), kHeaderMagic, kHeaderMagic + 8);
  put_u32(header, kFormatVersion);
  header.push_back(static_cast<std::uint8_t>(platform));
  header.push_back(0);
  header.push_back(0);
  header.push_back(0);
  put_u64(header, static_cast<std::uint64_t>(horizon));
  MEMFP_CHECK_EQ(header.size(), kHeaderBytes);
  out_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
}

ShardWriter::~ShardWriter() = default;

std::vector<std::uint64_t> ShardWriter::append(
    std::span<const DimmTrace> traces) {
  MEMFP_CHECK(!finished_) << "trace store: append after finish on " << path_;
  std::vector<std::uint64_t> hashes(traces.size());
  std::vector<std::vector<std::uint8_t>> payloads(traces.size());
  ThreadPool::global().parallel_for_ordered(
      traces.size(),
      [&](std::size_t i) {
        encode_dimm_record(traces[i], payloads[i]);
        hashes[i] = fnv1a_bytes(kFnvOffset, payloads[i].data(),
                                payloads[i].size());
      },
      // Frames go out in record order on the calling thread: the offsets,
      // the record checksum and the file bytes are the serial writer's,
      // whatever the thread count. Each payload is freed once written.
      [&](std::size_t i) {
        write_frame(traces[i], payloads[i], hashes[i]);
        std::vector<std::uint8_t>().swap(payloads[i]);
      });
  return hashes;
}

std::uint64_t ShardWriter::append(const DimmTrace& trace) {
  MEMFP_CHECK(!finished_) << "trace store: append after finish on " << path_;
  payload_.clear();
  encode_dimm_record(trace, payload_);
  const std::uint64_t hash =
      fnv1a_bytes(kFnvOffset, payload_.data(), payload_.size());
  write_frame(trace, payload_, hash);
  return hash;
}

void ShardWriter::write_frame(const DimmTrace& trace,
                              const std::vector<std::uint8_t>& payload,
                              std::uint64_t payload_hash) {
  prefix_.clear();
  put_varint(prefix_, payload.size());
  offsets_.push_back(region_bytes_);
  checksum_ = fold_record(checksum_, payload.size(), payload_hash);
  region_bytes_ += prefix_.size() + payload.size();
  out_.write(reinterpret_cast<const char*>(prefix_.data()),
             static_cast<std::streamsize>(prefix_.size()));
  out_.write(reinterpret_cast<const char*>(payload.data()),
             static_cast<std::streamsize>(payload.size()));
  MEMFP_CHECK(out_.good()) << "trace store: append write failed on " << path_
                           << " (disk full?)";

  ++stats_.dimms;
  stats_.ce_records += trace.ces.size();
  stats_.mem_events += trace.events.size();
  stats_.ue_records += trace.ue ? 1 : 0;
  stats_.suppressed_ces += trace.suppressed_ce_count;
}

ShardStats ShardWriter::finish() {
  MEMFP_CHECK(!finished_) << "trace store: double finish on " << path_;
  finished_ = true;

  std::vector<std::uint8_t> tail;
  put_varint(tail, offsets_.size());
  std::uint64_t prev = 0;
  for (const std::uint64_t offset : offsets_) {
    put_varint(tail, offset - prev);
    prev = offset;
  }
  const std::uint64_t index_offset = kHeaderBytes + region_bytes_;
  put_u64(tail, index_offset);
  put_u64(tail, checksum_);
  tail.insert(tail.end(), kFooterMagic, kFooterMagic + 8);
  out_.write(reinterpret_cast<const char*>(tail.data()),
             static_cast<std::streamsize>(tail.size()));
  // Flush before close: buffered bytes hit the filesystem here, so a full
  // disk fails this check (with the path) instead of surfacing as a
  // checksum/footer mismatch at the next decode.
  out_.flush();
  MEMFP_CHECK(out_.good())
      << "trace store: footer write failed on " << path_ << " (disk full?)";
  out_.close();
  MEMFP_CHECK(out_.good()) << "trace store: close failed on " << path_;

  stats_.file_bytes = index_offset + tail.size();
  return stats_;
}

// ---------------------------------------------------------------------------
// Store directories
// ---------------------------------------------------------------------------

std::string shard_path(const std::string& dir, std::size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%05zu.mft", index);
  return (std::filesystem::path(dir) / name).string();
}

namespace {

/// Numeric index parsed from a "shard-<digits>.mft" filename. The %05zu
/// padding widens past 99,999 shards, where lexicographic order diverges
/// from numeric order; non-numeric or overflowing names sort after every
/// real shard (ties broken by full path below).
std::uint64_t shard_sort_key(const std::string& name) {
  constexpr std::uint64_t kUnparsed = std::numeric_limits<std::uint64_t>::max();
  constexpr std::size_t kPrefix = 6;  // "shard-"
  constexpr std::size_t kSuffix = 4;  // ".mft"
  if (name.size() <= kPrefix + kSuffix) return kUnparsed;
  std::uint64_t value = 0;
  for (std::size_t i = kPrefix; i < name.size() - kSuffix; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return kUnparsed;
    if (value > (kUnparsed - static_cast<std::uint64_t>(c - '0')) / 10) {
      return kUnparsed;
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

}  // namespace

std::vector<std::string> list_shards(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> shards;
  MEMFP_CHECK(fs::is_directory(dir))
      << "trace store: " << dir << " is not a directory";
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.starts_with("shard-") && name.ends_with(".mft")) {
      shards.push_back(entry.path().string());
    }
  }
  std::sort(shards.begin(), shards.end(),
            [](const std::string& a, const std::string& b) {
              const std::uint64_t ka =
                  shard_sort_key(fs::path(a).filename().string());
              const std::uint64_t kb =
                  shard_sort_key(fs::path(b).filename().string());
              if (ka != kb) return ka < kb;
              return a < b;
            });
  return shards;
}

}  // namespace memfp::sim
