#include "sim/trace_store.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <system_error>

#include "common/check.h"
#include "common/thread_pool.h"

namespace memfp::sim {
namespace {

constexpr char kHeaderMagic[8] = {'M', 'F', 'T', 'S', 'H', 'R', 'D', '1'};
constexpr char kFooterMagic[8] = {'M', 'F', 'T', 'S', 'E', 'N', 'D', '1'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kHeaderBytes = 24;  // magic + version + platform + horizon
constexpr std::size_t kFooterBytes = 24;  // index offset + region hash + magic

// ---------------------------------------------------------------------------
// Little-endian primitives (explicit, so shards are portable across hosts)
// ---------------------------------------------------------------------------

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xff);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xff);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// LEB128 unsigned varint: 7 payload bits per byte, high bit = continuation.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Bounds-checked decode cursor. Every primitive dies with a MEMFP_CHECK
/// diagnostic on truncation or malformed data — never reads out of bounds.
/// `context` (e.g. " in <shard path> (record 17)") is appended to every
/// diagnostic so a corrupt shard in a multi-file store names itself.
class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> data,
                  std::string_view context = {})
      : data_(data), context_(context) {}

  std::size_t position() const { return pos_; }
  bool exhausted() const { return pos_ == data_.size(); }
  std::string_view context() const { return context_; }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      MEMFP_CHECK_LT(pos_, data_.size())
          << "trace store: truncated varint" << context_;
      MEMFP_CHECK_LT(shift, 64)
          << "trace store: varint overflows 64 bits" << context_;
      const std::uint8_t byte = data_[pos_++];
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
  }

  /// Varint narrowed to a non-negative int (coordinates, config fields).
  int varint_int() {
    const std::uint64_t v = varint();
    MEMFP_CHECK_LE(v, 0x7fffffffULL)
        << "trace store: field exceeds int range" << context_;
    return static_cast<int>(v);
  }

  std::uint8_t byte() {
    MEMFP_CHECK_LT(pos_, data_.size())
        << "trace store: truncated record" << context_;
    return data_[pos_++];
  }

  std::uint32_t fixed_u32() {
    MEMFP_CHECK_LE(pos_ + 4, data_.size())
        << "trace store: truncated f32" << context_;
    const std::uint32_t v = get_u32(data_.data() + pos_);
    pos_ += 4;
    return v;
  }

  std::span<const std::uint8_t> bytes(std::size_t n) {
    MEMFP_CHECK_LE(n, data_.size() - pos_)
        << "trace store: truncated bytes" << context_;
    const std::span<const std::uint8_t> view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::string_view context_;
};

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

dram::CellCoord decode_coord(Cursor& in) {
  dram::CellCoord coord;
  coord.rank = in.varint_int();
  coord.device = in.varint_int();
  coord.bank = in.varint_int();
  coord.row = in.varint_int();
  coord.column = in.varint_int();
  return coord;
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

/// Decodes into `pattern`, which must be empty. The bits are added in
/// place: a canonical record brings them sorted, and add() sorts and
/// deduplicates a non-canonical one (a repeated lane group) exactly as the
/// ErrorPattern(std::vector) constructor would.
void decode_pattern(Cursor& in, dram::ErrorPattern& pattern) {
  const std::uint64_t groups = in.varint();
  int dq = 0;
  for (std::uint64_t g = 0; g < groups; ++g) {
    // Bounded before the add, so a hostile delta cannot overflow `dq`.
    const int delta = in.varint_int();
    MEMFP_CHECK_LE(delta, 0xff - dq)
        << "trace store: DQ lane exceeds 8 bits" << in.context();
    dq += delta;
    const std::uint8_t mask = in.byte();
    MEMFP_CHECK_NE(mask, 0u)
        << "trace store: empty beat mask group" << in.context();
    for (int beat = 0; beat < 8; ++beat) {
      if (mask & (1u << beat)) {
        pattern.add({static_cast<std::uint8_t>(dq),
                     static_cast<std::uint8_t>(beat)});
      }
    }
  }
}

void encode_f32(float value, std::vector<std::uint8_t>& out) {
  put_u32(out, std::bit_cast<std::uint32_t>(value));
}

float decode_f32(Cursor& in) { return std::bit_cast<float>(in.fixed_u32()); }

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

DimmTrace decode_dimm_record(std::span<const std::uint8_t> payload,
                             dram::Platform platform,
                             std::string_view context) {
  Cursor in(payload, context);
  DimmTrace trace;
  trace.platform = platform;
  const std::uint64_t id = in.varint();
  MEMFP_CHECK_LE(id, 0xffffffffULL)
      << "trace store: DimmId exceeds 32 bits" << context;
  trace.id = static_cast<dram::DimmId>(id);
  const std::uint64_t server = in.varint();
  MEMFP_CHECK_LE(server, 0xffffffffULL)
      << "trace store: server id exceeds 32 bits" << context;
  trace.server_id = static_cast<std::uint32_t>(server);

  const std::uint8_t manufacturer = in.byte();
  MEMFP_CHECK_LE(manufacturer, static_cast<int>(dram::Manufacturer::kD))
      << "trace store: invalid manufacturer" << context;
  trace.config.manufacturer = static_cast<dram::Manufacturer>(manufacturer);
  const std::uint8_t process = in.byte();
  MEMFP_CHECK_LE(process, static_cast<int>(dram::DramProcess::k1a))
      << "trace store: invalid process node" << context;
  trace.config.process = static_cast<dram::DramProcess>(process);
  const std::uint8_t width = in.byte();
  MEMFP_CHECK(width == 4 || width == 8)
      << "trace store: invalid device width" << context;
  trace.config.width = static_cast<dram::DeviceWidth>(width);
  trace.config.frequency_mhz = in.varint_int();
  trace.config.capacity_gib = in.varint_int();
  const std::uint64_t part_len = in.varint();
  const std::span<const std::uint8_t> part = in.bytes(part_len);
  trace.config.part_number.assign(part.begin(), part.end());
  trace.workload.cpu_utilization = decode_f32(in);
  trace.workload.memory_utilization = decode_f32(in);
  trace.workload.read_write_ratio = decode_f32(in);

  const std::uint64_t ces = in.varint();
  trace.ces.reserve(ces);
  SimTime prev = 0;
  for (std::uint64_t i = 0; i < ces; ++i) {
    dram::CeEvent& ce = trace.ces.emplace_back();
    const std::uint64_t delta = in.varint();
    MEMFP_CHECK_LE(delta, static_cast<std::uint64_t>(
                              std::numeric_limits<SimTime>::max() - prev))
        << "trace store: CE timestamp overflows SimTime" << context;
    ce.time = prev + static_cast<SimTime>(delta);
    prev = ce.time;
    ce.coord = decode_coord(in);
    decode_pattern(in, ce.pattern);
  }

  const std::uint64_t events = in.varint();
  trace.events.reserve(events);
  prev = 0;
  for (std::uint64_t i = 0; i < events; ++i) {
    dram::MemEvent event;
    const std::uint64_t delta = in.varint();
    MEMFP_CHECK_LE(delta, static_cast<std::uint64_t>(
                              std::numeric_limits<SimTime>::max() - prev))
        << "trace store: event timestamp overflows SimTime" << context;
    event.time = prev + static_cast<SimTime>(delta);
    prev = event.time;
    const std::uint8_t type = in.byte();
    MEMFP_CHECK_LE(type, static_cast<int>(dram::MemEventType::kPageOffline))
        << "trace store: invalid mem event type" << context;
    event.type = static_cast<dram::MemEventType>(type);
    trace.events.push_back(event);
  }

  trace.suppressed_ce_count = in.varint();
  const std::uint8_t has_ue = in.byte();
  MEMFP_CHECK_LE(has_ue, 1u) << "trace store: invalid UE flag" << context;
  if (has_ue) {
    dram::UeEvent ue;
    const std::uint64_t time = in.varint();
    MEMFP_CHECK_LE(time, static_cast<std::uint64_t>(
                             std::numeric_limits<SimTime>::max()))
        << "trace store: UE timestamp overflows SimTime" << context;
    ue.time = static_cast<SimTime>(time);
    ue.coord = decode_coord(in);
    decode_pattern(in, ue.pattern);
    const std::uint8_t prior = in.byte();
    MEMFP_CHECK_LE(prior, 1u)
        << "trace store: invalid had_prior_ce flag" << context;
    ue.had_prior_ce = prior != 0;
    trace.ue = std::move(ue);
  }
  MEMFP_CHECK(in.exhausted())
      << "trace store: record carries " << payload.size() - in.position()
      << " trailing bytes" << context;
  return trace;
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
      // the region checksum and the file bytes are the serial writer's,
      // whatever the thread count. Each payload is freed once written.
      [&](std::size_t i) {
        write_frame(traces[i], payloads[i]);
        std::vector<std::uint8_t>().swap(payloads[i]);
      });
  return hashes;
}

std::uint64_t ShardWriter::append(const DimmTrace& trace) {
  MEMFP_CHECK(!finished_) << "trace store: append after finish on " << path_;
  payload_.clear();
  encode_dimm_record(trace, payload_);
  write_frame(trace, payload_);
  return fnv1a_bytes(kFnvOffset, payload_.data(), payload_.size());
}

void ShardWriter::write_frame(const DimmTrace& trace,
                              const std::vector<std::uint8_t>& payload) {
  prefix_.clear();
  put_varint(prefix_, payload.size());
  offsets_.push_back(region_bytes_);
  region_hash_ = fnv1a_bytes(region_hash_, prefix_.data(), prefix_.size());
  region_hash_ = fnv1a_bytes(region_hash_, payload.data(), payload.size());
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
  put_u64(tail, region_hash_);
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
// TraceReader
// ---------------------------------------------------------------------------

TraceReader::TraceReader(const std::string& path) : path_(path) {
  std::ifstream in(path, std::ios::binary);
  MEMFP_CHECK(in.good()) << "trace store: cannot open " << path;
  // One sized read: the header into a fixed buffer and the rest of the file
  // straight into region_, which is trimmed to the record region in place
  // once the index is parsed. No byte of the shard is copied twice.
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  MEMFP_CHECK(!error) << "trace store: read failed on " << path << " ("
                      << error.message() << ")";
  const auto file_size = static_cast<std::size_t>(size);
  std::array<std::uint8_t, kHeaderBytes> header{};
  const std::size_t header_read = std::min(file_size, kHeaderBytes);
  region_.resize(file_size - header_read);
  in.read(reinterpret_cast<char*>(header.data()),
          static_cast<std::streamsize>(header_read));
  in.read(reinterpret_cast<char*>(region_.data()),
          static_cast<std::streamsize>(region_.size()));
  MEMFP_CHECK(in.good()) << "trace store: read failed on " << path;
  file_bytes_ = file_size;
  MEMFP_CHECK_GE(file_size, kHeaderBytes + kFooterBytes)
      << "trace store: " << path << " is truncated";

  MEMFP_CHECK(std::memcmp(header.data(), kHeaderMagic, 8) == 0)
      << "trace store: " << path << " is not a shard file";
  const std::uint32_t version = get_u32(header.data() + 8);
  MEMFP_CHECK_EQ(version, kFormatVersion)
      << "trace store: unsupported shard version in " << path;
  const std::uint8_t platform = header[12];
  MEMFP_CHECK_LE(platform, static_cast<int>(dram::Platform::kK920))
      << "trace store: invalid platform in " << path;
  platform_ = static_cast<dram::Platform>(platform);
  horizon_ = static_cast<SimTime>(get_u64(header.data() + 16));
  MEMFP_CHECK_GE(horizon_, 0) << "trace store: negative horizon in " << path;

  // region_ holds everything after the header: records, index, footer.
  const std::uint8_t* footer = region_.data() + region_.size() - kFooterBytes;
  MEMFP_CHECK(std::memcmp(footer + 16, kFooterMagic, 8) == 0)
      << "trace store: " << path << " has no footer (unfinished writer?)";
  const std::uint64_t index_offset = get_u64(footer);
  const std::uint64_t stored_hash = get_u64(footer + 8);
  MEMFP_CHECK(index_offset >= kHeaderBytes &&
              index_offset <= file_size - kFooterBytes)
      << "trace store: index offset out of bounds in " << path;

  const auto region_size = static_cast<std::size_t>(index_offset - kHeaderBytes);
  const std::span<const std::uint8_t> region(region_.data(), region_size);
  const std::uint64_t actual_hash =
      fnv1a_bytes(kFnvOffset, region.data(), region.size());
  MEMFP_CHECK_EQ(actual_hash, stored_hash)
      << "trace store: record region checksum mismatch in " << path;

  Cursor index(std::span<const std::uint8_t>(region_).subspan(
      region_size, region_.size() - kFooterBytes - region_size));
  const std::uint64_t count = index.varint();
  records_.reserve(count);
  std::uint64_t offset = 0;
  std::uint64_t expected_next = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    offset += index.varint();
    MEMFP_CHECK_EQ(offset, expected_next)
        << "trace store: non-contiguous record frames in " << path;
    Cursor frame(region.subspan(static_cast<std::size_t>(offset)));
    const std::uint64_t len = frame.varint();
    const std::uint64_t payload_start = offset + frame.position();
    // Subtraction form: a hostile length near 2^64 would wrap the additive
    // `payload_start + len` bound. payload_start <= region size holds by the
    // frame cursor's own bounds (it reads within region[offset:]).
    MEMFP_CHECK_LE(len, region.size() - payload_start)
        << "trace store: record overruns the region in " << path;
    records_.emplace_back(payload_start, len);
    expected_next = payload_start + len;
  }
  MEMFP_CHECK(index.exhausted())
      << "trace store: trailing bytes after the shard index in " << path;
  MEMFP_CHECK_EQ(expected_next, region.size())
      << "trace store: record region has unindexed bytes in " << path;
  region_.resize(region_size);
}

DimmTrace TraceReader::read_dimm(std::size_t index) const {
  MEMFP_CHECK_LT(index, records_.size())
      << "trace store: record index out of range in " << path_;
  const auto [offset, length] = records_[index];
  char context[288];
  std::snprintf(context, sizeof(context), " in %s (record %zu)", path_.c_str(),
                index);
  return decode_dimm_record(
      std::span<const std::uint8_t>(region_).subspan(
          static_cast<std::size_t>(offset), static_cast<std::size_t>(length)),
      platform_, context);
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
