// The read side of the trace store: the record decoder and TraceReader.
// It is its own translation unit because GCC budgets inlining per unit: at
// -O3, compiled with the decoder's inlined varint fast paths, the encoder
// in trace_store.cc stopped inlining its per-byte vector appends, and the
// batch append ran ~10% slower.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "common/thread_pool.h"
#include "sim/shard_format.h"
#include "sim/trace_store.h"

namespace memfp::sim {
namespace {

// ---------------------------------------------------------------------------
// Little-endian primitives (explicit, so shards are portable across hosts)
// ---------------------------------------------------------------------------

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

  std::size_t remaining() const { return data_.size() - pos_; }

  std::uint64_t varint() {
    if (pos_ < data_.size() && data_[pos_] < 0x80) return data_[pos_++];
    if (remaining() >= kMaxVarintBytes) {
      // Every byte a varint may take is in bounds: decode without checks.
      const std::uint8_t* p = data_.data() + pos_;
      std::uint64_t v = 0;
      for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
        v |= static_cast<std::uint64_t>(p[i] & 0x7f) << (7 * i);
        if (p[i] < 0x80) {
          pos_ += i + 1;
          return v;
        }
      }
      // Ten continuation bytes: the checked loop names the failure.
    }
    return checked_varint();
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
  // The bytes of the longest varint: 9 x 7 bits + 1.
  static constexpr std::size_t kMaxVarintBytes = 10;

  std::uint64_t checked_varint() {
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

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::string_view context_;
};

// ---------------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------------

dram::CellCoord decode_coord(Cursor& in) {
  dram::CellCoord coord;
  coord.rank = in.varint_int();
  coord.device = in.varint_int();
  coord.bank = in.varint_int();
  coord.row = in.varint_int();
  coord.column = in.varint_int();
  return coord;
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

float decode_f32(Cursor& in) { return std::bit_cast<float>(in.fixed_u32()); }

}  // namespace

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

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

  // Each count is bounded by the bytes left before it sizes a vector: a CE
  // takes at least 7 bytes (time delta, five coordinates, group count), an
  // event at least 2 (time delta, type).
  const std::uint64_t ces = in.varint();
  MEMFP_CHECK_LE(ces, in.remaining() / 7)
      << "trace store: CE count exceeds the record" << context;
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
  MEMFP_CHECK_LE(events, in.remaining() / 2)
      << "trace store: event count exceeds the record" << context;
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

// ---------------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------------

namespace {

/// A shard file open for positioned reads: any number of threads may read
/// disjoint ranges of it at once. Every failure dies naming the path.
class ShardFile {
 public:
  explicit ShardFile(const std::string& path)
      : path_(path), fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    MEMFP_CHECK_GE(fd_, 0) << "trace store: cannot open " << path;
    struct stat st {};
    MEMFP_CHECK_EQ(::fstat(fd_, &st), 0)
        << "trace store: read failed on " << path << " ("
        << std::strerror(errno) << ")";
    MEMFP_CHECK(S_ISREG(st.st_mode))
        << "trace store: read failed on " << path << " (not a regular file)";
    size_ = static_cast<std::uint64_t>(st.st_size);
  }
  ~ShardFile() { ::close(fd_); }
  ShardFile(const ShardFile&) = delete;
  ShardFile& operator=(const ShardFile&) = delete;

  std::uint64_t size() const { return size_; }

  /// Reads exactly `n` bytes at `offset` into `out`.
  void read(std::uint64_t offset, std::uint8_t* out, std::size_t n) const {
    while (n > 0) {
      const ssize_t got = ::pread(fd_, out, n, static_cast<off_t>(offset));
      if (got < 0 && errno == EINTR) continue;
      MEMFP_CHECK_GT(got, 0)
          << "trace store: read failed on " << path_ << " ("
          << (got == 0 ? "file shrank while read" : std::strerror(errno))
          << ")";
      out += got;
      offset += static_cast<std::uint64_t>(got);
      n -= static_cast<std::size_t>(got);
    }
  }

 private:
  const std::string& path_;
  int fd_;
  std::uint64_t size_ = 0;
};

}  // namespace

TraceReader::TraceReader(const std::string& path) : path_(path) {
  const ShardFile file(path);
  file_bytes_ = file.size();
  MEMFP_CHECK_GE(file_bytes_, kHeaderBytes + kFooterBytes)
      << "trace store: " << path << " is truncated";

  std::array<std::uint8_t, kHeaderBytes> header{};
  file.read(0, header.data(), header.size());
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

  std::array<std::uint8_t, kFooterBytes> footer{};
  const std::uint64_t footer_offset = file_bytes_ - kFooterBytes;
  file.read(footer_offset, footer.data(), footer.size());
  MEMFP_CHECK(std::memcmp(footer.data() + 16, kFooterMagic, 8) == 0)
      << "trace store: " << path << " has no footer (unfinished writer?)";
  const std::uint64_t index_offset = get_u64(footer.data());
  const std::uint64_t stored_checksum = get_u64(footer.data() + 8);
  MEMFP_CHECK(index_offset >= kHeaderBytes && index_offset <= footer_offset)
      << "trace store: index offset out of bounds in " << path;

  // The index, serially: frame starts, strictly increasing from 0, each
  // inside the region. An entry takes at least one byte, which bounds the
  // count before it sizes anything.
  std::vector<std::uint8_t> index_bytes(
      static_cast<std::size_t>(footer_offset - index_offset));
  file.read(index_offset, index_bytes.data(), index_bytes.size());
  const std::string context = " in " + path;
  Cursor index(index_bytes, context);
  const std::uint64_t count = index.varint();
  MEMFP_CHECK_LE(count, index.remaining())
      << "trace store: index count exceeds the index" << context;
  const std::uint64_t region_size = index_offset - kHeaderBytes;
  std::vector<std::uint64_t> frames(static_cast<std::size_t>(count) + 1);
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t delta = index.varint();
    MEMFP_CHECK(i == 0 ? delta == 0 : delta > 0)
        << "trace store: non-contiguous record frames" << context;
    MEMFP_CHECK_LT(delta, region_size - offset)
        << "trace store: record offset overruns the region" << context;
    offset += delta;
    frames[i] = offset;
  }
  frames[count] = region_size;
  MEMFP_CHECK(index.exhausted())
      << "trace store: trailing bytes after the shard index" << context;
  MEMFP_CHECK(count > 0 || region_size == 0)
      << "trace store: record region has unindexed bytes" << context;

  // The region, in parallel: each chunk of frames reads its bytes, checks
  // each length prefix against the frame the index gives, and hashes the
  // payload while it is in cache.
  region_ = std::make_unique_for_overwrite<std::uint8_t[]>(
      static_cast<std::size_t>(region_size));
  records_.resize(static_cast<std::size_t>(count));
  std::vector<std::uint64_t> hashes(static_cast<std::size_t>(count));
  ThreadPool::global().parallel_for_chunks(
      static_cast<std::size_t>(count),
      [&](std::size_t begin, std::size_t end) {
        file.read(kHeaderBytes + frames[begin], region_.get() + frames[begin],
                  static_cast<std::size_t>(frames[end] - frames[begin]));
        for (std::size_t i = begin; i < end; ++i) {
          Cursor frame({region_.get() + frames[i],
                        static_cast<std::size_t>(frames[i + 1] - frames[i])},
                       context);
          const std::uint64_t len = frame.varint();
          const std::uint64_t payload_start = frames[i] + frame.position();
          // Subtraction form: a hostile length near 2^64 would wrap an
          // additive `payload_start + len` bound.
          MEMFP_CHECK_LE(len, region_size - payload_start)
              << "trace store: record overruns the region" << context;
          MEMFP_CHECK_EQ(len, frames[i + 1] - payload_start)
              << "trace store: non-contiguous record frames" << context;
          records_[i] = {payload_start, len};
          hashes[i] = fnv1a_bytes(kFnvOffset, region_.get() + payload_start,
                                  static_cast<std::size_t>(len));
        }
      });
  std::uint64_t checksum = kFnvOffset;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    checksum = fold_record(checksum, records_[i].second, hashes[i]);
  }
  MEMFP_CHECK_EQ(checksum, stored_checksum)
      << "trace store: record checksum mismatch" << context;
}

DimmTrace TraceReader::read_dimm(std::size_t index) const {
  MEMFP_CHECK_LT(index, records_.size())
      << "trace store: record index out of range in " << path_;
  const auto [offset, length] = records_[index];
  char context[288];
  std::snprintf(context, sizeof(context), " in %s (record %zu)", path_.c_str(),
                index);
  return decode_dimm_record(
      {region_.get() + offset, static_cast<std::size_t>(length)}, platform_,
      context);
}

}  // namespace memfp::sim
