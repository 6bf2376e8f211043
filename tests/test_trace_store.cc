// Codec contract of the compact binary trace store (src/sim/trace_store.h):
// encode→decode round-trips every DimmTrace field exactly, re-encoding
// reproduces the identical bytes (the golden-hash contract), and corrupt or
// truncated shards die with a clean MEMFP_CHECK diagnostic, never UB.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "sim/fleet.h"
#include "sim/trace_store.h"

namespace memfp::sim {
namespace {

std::string temp_dir() {
  const auto dir =
      std::filesystem::temp_directory_path() / "memfp_trace_store_test";
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Storm-heavy trace: dense CE bursts with multi-bit patterns, storm +
/// suppression + page-offline events, and a large suppressed counter.
DimmTrace storm_heavy_trace() {
  DimmTrace trace;
  trace.id = 42;
  trace.server_id = 7;
  trace.config.manufacturer = dram::Manufacturer::kC;
  trace.config.process = dram::DramProcess::k1a;
  trace.config.width = dram::DeviceWidth::kX8;
  trace.config.frequency_mhz = 3200;
  trace.config.capacity_gib = 64;
  trace.config.part_number = "PN-C1A-3200-64G";
  trace.workload = {0.83f, 0.41f, 2.5f};
  SimTime t = hours(3);
  for (int burst = 0; burst < 20; ++burst) {
    t += minutes(7 + burst);
    for (int i = 0; i < 25; ++i) {
      dram::CeEvent ce;
      ce.time = t + i;  // sub-minute burst spacing: tiny deltas
      ce.coord = {0, 3, 2, 4000 + burst, 128 + i};
      ce.pattern.add({static_cast<std::uint8_t>(i % 8), 0});
      ce.pattern.add({static_cast<std::uint8_t>(i % 8),
                      static_cast<std::uint8_t>(1 + i % 7)});
      ce.pattern.add({static_cast<std::uint8_t>(8 + i % 4), 3});
      trace.ces.push_back(ce);
    }
    trace.events.push_back({t, dram::MemEventType::kCeStorm});
    trace.events.push_back({t + 30, dram::MemEventType::kCeStormSuppressed});
  }
  trace.events.push_back({t + hours(1), dram::MemEventType::kPageOffline});
  trace.suppressed_ce_count = 123456;
  return trace;
}

/// Sparse trace: a handful of single-bit CEs weeks apart.
DimmTrace sparse_trace() {
  DimmTrace trace;
  trace.id = 3;
  trace.server_id = 1;
  trace.config.part_number = "PN-sparse";
  trace.workload = {0.1f, 0.9f, 0.7f};
  for (int i = 0; i < 4; ++i) {
    dram::CeEvent ce;
    ce.time = days(30 * (i + 1)) + hours(i);
    ce.coord = {1, i, 7, 100 * i, 42};
    ce.pattern.add({4, static_cast<std::uint8_t>(i % 8)});
    trace.ces.push_back(ce);
  }
  return trace;
}

/// Empty DIMM: config + workload only, no telemetry at all.
DimmTrace empty_trace() {
  DimmTrace trace;
  trace.id = 0;
  trace.workload = {0.0f, 0.0f, 1.0f};
  return trace;
}

/// UE-truncated trace: CE prelude ending in an uncorrectable hit.
DimmTrace ue_truncated_trace() {
  DimmTrace trace = sparse_trace();
  trace.id = 77;
  dram::UeEvent ue;
  ue.time = trace.ces.back().time + days(2);
  ue.coord = {0, 9, 1, 777, 13};
  ue.pattern.add({2, 1});
  ue.pattern.add({14, 1});
  ue.had_prior_ce = true;
  trace.ue = ue;
  return trace;
}

std::vector<DimmTrace> corpus() {
  return {storm_heavy_trace(), sparse_trace(), empty_trace(),
          ue_truncated_trace()};
}

void expect_traces_equal(const DimmTrace& a, const DimmTrace& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.server_id, b.server_id);
  EXPECT_EQ(a.platform, b.platform);
  EXPECT_EQ(a.config.manufacturer, b.config.manufacturer);
  EXPECT_EQ(a.config.process, b.config.process);
  EXPECT_EQ(a.config.width, b.config.width);
  EXPECT_EQ(a.config.frequency_mhz, b.config.frequency_mhz);
  EXPECT_EQ(a.config.capacity_gib, b.config.capacity_gib);
  EXPECT_EQ(a.config.part_number, b.config.part_number);
  EXPECT_EQ(a.workload.cpu_utilization, b.workload.cpu_utilization);
  EXPECT_EQ(a.workload.memory_utilization, b.workload.memory_utilization);
  EXPECT_EQ(a.workload.read_write_ratio, b.workload.read_write_ratio);
  ASSERT_EQ(a.ces.size(), b.ces.size());
  for (std::size_t i = 0; i < a.ces.size(); ++i) {
    EXPECT_EQ(a.ces[i].time, b.ces[i].time);
    EXPECT_EQ(a.ces[i].coord.rank, b.ces[i].coord.rank);
    EXPECT_EQ(a.ces[i].coord.device, b.ces[i].coord.device);
    EXPECT_EQ(a.ces[i].coord.bank, b.ces[i].coord.bank);
    EXPECT_EQ(a.ces[i].coord.row, b.ces[i].coord.row);
    EXPECT_EQ(a.ces[i].coord.column, b.ces[i].coord.column);
    EXPECT_EQ(a.ces[i].pattern, b.ces[i].pattern);
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].type, b.events[i].type);
  }
  EXPECT_EQ(a.suppressed_ce_count, b.suppressed_ce_count);
  ASSERT_EQ(a.ue.has_value(), b.ue.has_value());
  if (a.ue) {
    EXPECT_EQ(a.ue->time, b.ue->time);
    EXPECT_EQ(a.ue->pattern, b.ue->pattern);
    EXPECT_EQ(a.ue->had_prior_ce, b.ue->had_prior_ce);
  }
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// `copies` rounds of `traces` with ascending ids, as a shard holds them.
std::vector<DimmTrace> repeated(const std::vector<DimmTrace>& traces,
                                std::size_t copies) {
  std::vector<DimmTrace> out;
  for (std::size_t c = 0; c < copies; ++c) {
    for (const DimmTrace& trace : traces) {
      out.push_back(trace);
      out.back().id = static_cast<dram::DimmId>(out.size());
    }
  }
  return out;
}

void push_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void push_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xff);
}

/// The parts of a shard file, laid out by hand from the format definition
/// in trace_store.h rather than by ShardWriter.
struct HandBuiltShard {
  std::uint32_t version = 2;
  std::vector<std::uint8_t> region;    // the frames
  std::vector<std::uint64_t> frames;   // frame starts in the region
  std::vector<std::uint64_t> payload;  // payload starts in the region
  std::uint64_t checksum = kFnvOffset;

  /// Appends one frame and folds it into the version 2 record checksum.
  void add(const std::vector<std::uint8_t>& bytes) {
    frames.push_back(region.size());
    push_varint(region, bytes.size());
    payload.push_back(region.size());
    region.insert(region.end(), bytes.begin(), bytes.end());
    checksum = fnv1a_u64(fnv1a_u64(checksum, bytes.size()),
                         fnv1a_bytes(kFnvOffset, bytes.data(), bytes.size()));
  }

  /// The index for `frames`: count, then offset deltas.
  std::vector<std::uint8_t> index() const {
    std::vector<std::uint8_t> out;
    push_varint(out, frames.size());
    std::uint64_t prev = 0;
    for (const std::uint64_t frame : frames) {
      push_varint(out, frame - prev);
      prev = frame;
    }
    return out;
  }

  /// Header (Purley, horizon `horizon`), region, `index_bytes` and footer.
  std::vector<std::uint8_t> file(const std::vector<std::uint8_t>& index_bytes,
                                 SimTime horizon = 0) const {
    std::vector<std::uint8_t> out = {'M', 'F', 'T', 'S', 'H', 'R', 'D', '1'};
    for (int i = 0; i < 4; ++i) out.push_back((version >> (8 * i)) & 0xff);
    out.insert(out.end(), 4, 0);  // platform (Purley) + padding
    push_u64(out, static_cast<std::uint64_t>(horizon));
    out.insert(out.end(), region.begin(), region.end());
    out.insert(out.end(), index_bytes.begin(), index_bytes.end());
    push_u64(out, 24 + region.size());
    push_u64(out, checksum);
    const char magic[8] = {'M', 'F', 'T', 'S', 'E', 'N', 'D', '1'};
    out.insert(out.end(), magic, magic + 8);
    return out;
  }
  std::vector<std::uint8_t> file() const { return file(index()); }
};

/// The hand-built shard of `traces`, one frame per encoded record.
HandBuiltShard hand_built(const std::vector<DimmTrace>& traces) {
  HandBuiltShard shard;
  for (const DimmTrace& trace : traces) {
    std::vector<std::uint8_t> bytes;
    encode_dimm_record(trace, bytes);
    shard.add(bytes);
  }
  return shard;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Writes `traces` one record at a time. The one-record append starts no
/// pool worker: a death test forked from a process whose workers sleep on
/// the pool's condition variable can hang in the child's first notify, so
/// no death test may start the pool outside its death statement.
void write_shard(const std::string& path, const std::vector<DimmTrace>& traces,
                 SimTime horizon = days(10)) {
  ShardWriter writer(path, dram::Platform::kIntelPurley, horizon);
  for (const DimmTrace& trace : traces) writer.append(trace);
  writer.finish();
}

/// XORs the byte at `offset` of the file at `path` with `mask`.
void flip_byte(const std::string& path, std::uint64_t offset,
               std::uint8_t mask) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  char byte = 0;
  file.seekg(static_cast<std::streamoff>(offset));
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ mask);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

TEST(TraceStoreHash, Fnv1aU32AsU64MatchesFnv1aU64) {
  // The feature-hash fold's 32-bit step: four byte steps and one multiply
  // by P^4 must equal fnv1a_u64's eight byte steps over the zero-extended
  // value, for any running hash.
  Rng rng(2024);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t h = rng.next();
    const auto value = static_cast<std::uint32_t>(rng.next());
    ASSERT_EQ(fnv1a_u32_as_u64(h, value), fnv1a_u64(h, value))
        << "h " << h << ", value " << value;
  }
  for (const std::uint32_t value : {0u, 1u, 0x80u, 0xffffffffu}) {
    EXPECT_EQ(fnv1a_u32_as_u64(kFnvOffset, value),
              fnv1a_u64(kFnvOffset, value));
  }
}

TEST(TraceStoreCodec, GoldenHashRoundTrip) {
  for (const DimmTrace& trace : corpus()) {
    std::vector<std::uint8_t> encoded;
    encode_dimm_record(trace, encoded);
    const DimmTrace decoded =
        decode_dimm_record({encoded.data(), encoded.size()}, trace.platform);
    expect_traces_equal(trace, decoded);

    // Golden-hash: re-encoding the decoded trace reproduces the identical
    // byte stream, so resident and spilled representations hash the same.
    std::vector<std::uint8_t> re_encoded;
    encode_dimm_record(decoded, re_encoded);
    EXPECT_EQ(encoded, re_encoded) << "DIMM " << trace.id;
    EXPECT_EQ(trace_content_hash(trace), trace_content_hash(decoded));
    EXPECT_EQ(trace_content_hash(trace),
              fnv1a_bytes(kFnvOffset, encoded.data(), encoded.size()));
  }
}

/// Encodes a record holding one CE with `pattern`. The pattern's bytes are
/// the record's last ones but three: no events, no suppressed CEs, no UE.
std::vector<std::uint8_t> one_ce_record(const dram::ErrorPattern& pattern) {
  DimmTrace trace = empty_trace();
  dram::CeEvent ce;
  ce.time = days(1);
  ce.pattern = pattern;
  trace.ces.push_back(ce);
  std::vector<std::uint8_t> record;
  encode_dimm_record(trace, record);
  return record;
}

/// `one_ce_record` with its pattern field replaced by `pattern_bytes`, which
/// need not be canonical. `encoded_bytes` is the size of the field replaced.
std::vector<std::uint8_t> splice_pattern(
    std::vector<std::uint8_t> record, std::size_t encoded_bytes,
    const std::vector<std::uint8_t>& pattern_bytes) {
  const auto tail = record.end() - 3;
  record.erase(tail - static_cast<std::ptrdiff_t>(encoded_bytes), tail);
  record.insert(record.end() - 3, pattern_bytes.begin(), pattern_bytes.end());
  return record;
}

TEST(TraceStoreCodec, DecoderCanonicalisesHandBuiltPatterns) {
  // The decoder adds bits in place; a non-canonical record must still decode
  // to the pattern ErrorPattern(std::vector) makes of the same bits, and
  // re-encode to that pattern's canonical bytes.
  const std::vector<std::uint8_t> base = one_ce_record(
      dram::ErrorPattern({{1, 0}}));  // pattern field: 01 01 01
  struct Case {
    const char* name;
    std::vector<std::uint8_t> pattern_bytes;
    std::vector<dram::ErrorBit> bits;
  };
  const std::vector<Case> cases = {
      // Lane 3 twice (delta 0), the repeat carrying beat 0 again, then lane 5.
      {"repeated lane group",
       {0x03, 0x03, 0x05, 0x00, 0x03, 0x02, 0x80},
       {{3, 0}, {3, 2}, {3, 0}, {3, 1}, {5, 7}}},
      // Ten bits: past the inline capacity, so they spill to the heap.
      {"ten bits",
       {0x02, 0x00, 0xff, 0x09, 0x03},
       {{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 7},
        {9, 0}, {9, 1}}},
      // A repeated lane group that crosses the inline/spill boundary with
      // its bits out of order.
      {"repeat across the spill boundary",
       {0x03, 0x00, 0xf0, 0x00, 0x0f, 0x09, 0x03},
       {{0, 4}, {0, 5}, {0, 6}, {0, 7}, {0, 0}, {0, 1}, {0, 2}, {0, 3},
        {9, 0}, {9, 1}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<std::uint8_t> record =
        splice_pattern(base, 3, c.pattern_bytes);
    const DimmTrace decoded = decode_dimm_record(
        {record.data(), record.size()}, dram::Platform::kIntelPurley);
    ASSERT_EQ(decoded.ces.size(), 1u);
    const dram::ErrorPattern expected(c.bits);
    EXPECT_EQ(decoded.ces[0].pattern, expected);
    EXPECT_EQ(decoded.ces[0].pattern.bit_count(), expected.bit_count());

    std::vector<std::uint8_t> re_encoded;
    encode_dimm_record(decoded, re_encoded);
    EXPECT_EQ(re_encoded, one_ce_record(expected));
  }
}

TEST(TraceStoreCodec, DeltaTimestampsCompact) {
  // 500 storm CEs spaced 1 tick apart must cost ~1 byte of timestamp each,
  // not 8 — the point of delta + varint.
  DimmTrace trace = empty_trace();
  for (int i = 0; i < 500; ++i) {
    dram::CeEvent ce;
    ce.time = days(200) + i;
    ce.pattern.add({0, 0});
    trace.ces.push_back(ce);
  }
  std::vector<std::uint8_t> encoded;
  encode_dimm_record(trace, encoded);
  EXPECT_LT(encoded.size(), trace.ces.size() * 12);
}

TEST(TraceStoreShard, WriteReadRoundTrip) {
  const std::string path = shard_path(temp_dir(), 0);
  std::vector<DimmTrace> traces = corpus();
  // Platform is a fleet-level field: it lives in the shard header and is
  // stamped onto every decoded record.
  for (DimmTrace& trace : traces) {
    trace.platform = dram::Platform::kIntelWhitley;
  }
  ShardWriter writer(path, dram::Platform::kIntelWhitley, days(273));
  for (const DimmTrace& trace : traces) {
    writer.append(trace);
  }
  const ShardStats stats = writer.finish();
  EXPECT_EQ(stats.dimms, traces.size());
  EXPECT_GT(stats.file_bytes, 0u);

  const TraceReader reader(path);
  EXPECT_EQ(reader.platform(), dram::Platform::kIntelWhitley);
  EXPECT_EQ(reader.horizon(), days(273));
  ASSERT_EQ(reader.dimm_count(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    expect_traces_equal(traces[i], reader.read_dimm(i));
  }
  std::remove(path.c_str());
}

TEST(TraceStoreShard, AppendReturnsContentHash) {
  const std::string path = shard_path(temp_dir(), 1);
  ShardWriter writer(path, dram::Platform::kIntelPurley, days(10));
  const DimmTrace trace = storm_heavy_trace();
  EXPECT_EQ(writer.append(trace), trace_content_hash(trace));
  writer.finish();
  std::remove(path.c_str());
}

TEST(TraceStoreShard, ParallelBatchAppendMatchesSerialBytes) {
  // One batch append encodes on the pool but writes frames in order: the
  // file must be byte-identical to a trace-by-trace write at any thread
  // count, and the returned hashes must be the records' content hashes.
  const std::vector<std::vector<DimmTrace>> batches = {
      repeated({sparse_trace()}, 9),
      repeated({storm_heavy_trace()}, 5),
      repeated({ue_truncated_trace()}, 7),
      repeated({empty_trace()}, 6),
      // 1200 records: the frame writer trails the encoders, so it drains
      // both between its own chunks and after the section ends.
      repeated(corpus(), 300),
      {}};
  const std::string serial_path = shard_path(temp_dir(), 10);
  const std::string batch_path = shard_path(temp_dir(), 11);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const std::vector<DimmTrace>& batch = batches[b];
    ShardWriter serial(serial_path, dram::Platform::kIntelPurley, days(20));
    for (const DimmTrace& trace : batch) serial.append(trace);
    const ShardStats serial_stats = serial.finish();
    const std::vector<std::uint8_t> expected = file_bytes(serial_path);

    for (const int threads : {1, 2, 4, 16}) {
      SCOPED_TRACE(testing::Message()
                   << "batch " << b << ", " << threads << " threads");
      const ThreadPool::ScopedLimit limit(threads);
      ShardWriter writer(batch_path, dram::Platform::kIntelPurley, days(20));
      const std::vector<std::uint64_t> hashes = writer.append(batch);
      const ShardStats stats = writer.finish();
      ASSERT_EQ(hashes.size(), batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(hashes[i], trace_content_hash(batch[i])) << "record " << i;
      }
      EXPECT_EQ(file_bytes(batch_path), expected);
      EXPECT_EQ(stats.dimms, serial_stats.dimms);
      EXPECT_EQ(stats.raw_records(), serial_stats.raw_records());
      EXPECT_EQ(stats.suppressed_ces, serial_stats.suppressed_ces);
      EXPECT_EQ(stats.file_bytes, serial_stats.file_bytes);
    }
  }
  std::remove(serial_path.c_str());
  std::remove(batch_path.c_str());
}

TEST(TraceStoreDeathTest, TruncatedShardRejected) {
  const std::string path = shard_path(temp_dir(), 2);
  {
    ShardWriter writer(path, dram::Platform::kIntelPurley, days(10));
    writer.append(sparse_trace());
    writer.finish();
  }
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 9);
  EXPECT_DEATH({ TraceReader reader(path); }, "trace store");
  std::remove(path.c_str());
}

TEST(TraceStoreDeathTest, EmptyFileRejected) {
  // A zero-byte file must fail the size check, not read a header it lacks.
  const std::string path = shard_path(temp_dir(), 12);
  { std::ofstream out(path, std::ios::binary | std::ios::trunc); }
  ASSERT_EQ(std::filesystem::file_size(path), 0u);
  EXPECT_DEATH({ TraceReader reader(path); },
               "trace store: .*shard-00012\\.mft is truncated");
  std::remove(path.c_str());
}

TEST(TraceStoreDeathTest, HeaderOnlyFileRejected) {
  // A writer destroyed before any append or finish leaves just the header:
  // shorter than header + footer, so there is no footer to read.
  const std::string path = shard_path(temp_dir(), 13);
  { ShardWriter writer(path, dram::Platform::kIntelPurley, days(10)); }
  ASSERT_GT(std::filesystem::file_size(path), 0u);
  EXPECT_DEATH({ TraceReader reader(path); },
               "trace store: .*shard-00013\\.mft is truncated");
  std::remove(path.c_str());
}

TEST(TraceStoreDeathTest, DirectoryPathRejected) {
  // A directory opens as a stream but has no size to read.
  const std::string path =
      (std::filesystem::path(temp_dir()) / "shard-00014.mft").string();
  std::filesystem::create_directories(path);
  EXPECT_DEATH({ TraceReader reader(path); },
               "trace store: read failed on .*shard-00014\\.mft");
  std::filesystem::remove_all(path);
}

TEST(TraceStoreDeathTest, CorruptRecordRejected) {
  const std::string path = shard_path(temp_dir(), 3);
  {
    ShardWriter writer(path, dram::Platform::kIntelPurley, days(10));
    writer.append(storm_heavy_trace());
    writer.finish();
  }
  // Flip a byte in the record region: the footer checksum must catch it.
  flip_byte(path, 64, 0x5a);
  EXPECT_DEATH({ TraceReader reader(path); }, "trace store");
  std::remove(path.c_str());
}

TEST(TraceStoreDeathTest, GarbagePayloadRejected) {
  // A syntactically well-formed span of garbage must die in the decoder's
  // bounds checks, not wander off the end.
  const std::vector<std::uint8_t> garbage = {0xff, 0xff, 0xff, 0xff, 0xff,
                                             0xff, 0xff, 0xff, 0xff, 0x01};
  EXPECT_DEATH(
      decode_dimm_record({garbage.data(), garbage.size()},
                         dram::Platform::kIntelPurley),
      "trace store");
}

TEST(TraceStoreDeathTest, VarintFastPathKeepsDiagnostics) {
  // With ten or more bytes left the cursor decodes a varint without
  // per-byte checks; it must accept and reject what the checked loop does.
  // Ten continuation bytes are truncated with nothing after them and
  // overflow with a byte more; three are truncated on the checked path.
  const auto decode = [](const std::vector<std::uint8_t>& bytes) {
    return decode_dimm_record({bytes.data(), bytes.size()},
                              dram::Platform::kIntelPurley);
  };
  std::vector<std::uint8_t> overflow(10, 0x80);
  overflow.push_back(0x00);
  EXPECT_DEATH(decode(std::vector<std::uint8_t>(10, 0x80)),
               "trace store: truncated varint");
  EXPECT_DEATH(decode(overflow), "trace store: varint overflows 64 bits");
  EXPECT_DEATH(decode(std::vector<std::uint8_t>(3, 0x80)),
               "trace store: truncated varint");

  // A 10-byte varint decodes to the same value on the unchecked path.
  DimmTrace trace = sparse_trace();
  trace.suppressed_ce_count = ~0ULL;
  std::vector<std::uint8_t> encoded;
  encode_dimm_record(trace, encoded);
  EXPECT_EQ(decode(encoded).suppressed_ce_count, ~0ULL);
}

TEST(TraceStoreDeathTest, DqDeltaOverflowRejected) {
  // A lane delta of INT_MAX passes the int-range check of the varint but
  // would overflow the running lane index: it must be rejected as a lane
  // past 8 bits, not wrap negative and decode a corrupt pattern.
  const std::vector<std::uint8_t> valid =
      one_ce_record(dram::ErrorPattern({{1, 0}, {2, 0}}));
  // Pattern field: 02 | 01 01 | 01 01 (groups | delta mask | delta mask).
  const std::vector<std::uint8_t> hostile =
      splice_pattern(valid, 5, {0x02, 0x01, 0x01, 0xff, 0xff, 0xff, 0xff,
                                0x07, 0x01});
  const DimmTrace decoded = decode_dimm_record(
      {valid.data(), valid.size()}, dram::Platform::kIntelPurley);
  ASSERT_EQ(decoded.ces.size(), 1u);
  EXPECT_EQ(decoded.ces[0].pattern, dram::ErrorPattern({{1, 0}, {2, 0}}));
  EXPECT_DEATH(decode_dimm_record({hostile.data(), hostile.size()},
                                  dram::Platform::kIntelPurley),
               "trace store: DQ lane exceeds 8 bits");
}

TEST(TraceStoreDeathTest, OversizeFrameLengthRejected) {
  // A frame whose varint length is 2^64-1 makes `payload_start + len` wrap
  // around uint64, sailing under an additive bounds check. FNV-1a is not
  // cryptographic, so a hostile file can carry a consistent record checksum
  // — the reader must reject the length itself, not rely on the checksum.
  const std::string path = shard_path(temp_dir(), 4);
  HandBuiltShard shard;
  // Record region: a single frame prefix, varint(2^64 - 1) = ff*9 01, and
  // the version 2 checksum of that length with an empty payload's hash.
  shard.region.assign(9, 0xff);
  shard.region.push_back(0x01);
  shard.frames = {0};
  shard.checksum = fnv1a_u64(fnv1a_u64(kFnvOffset, ~0ULL), kFnvOffset);
  write_file(path, shard.file());
  EXPECT_DEATH({ TraceReader reader(path); }, "overruns the region");
  std::remove(path.c_str());
}

TEST(TraceStoreShard, WriterMatchesFormatDefinition) {
  // The writer's bytes are the hand-built layout of the format comment:
  // frames, offset-delta index and the version 2 record checksum.
  const std::string path = shard_path(temp_dir(), 15);
  const std::vector<DimmTrace> traces = repeated(corpus(), 3);
  write_shard(path, traces, 0);
  EXPECT_EQ(file_bytes(path), hand_built(traces).file());
  std::remove(path.c_str());
}

TEST(TraceStoreDeathTest, VersionOneShardRejected) {
  // A version 1 shard (the byte-serial FNV-1a of the record region in its
  // footer) has no reader: it dies at the version check.
  const std::string path = shard_path(temp_dir(), 16);
  HandBuiltShard shard = hand_built(corpus());
  shard.version = 1;
  shard.checksum =
      fnv1a_bytes(kFnvOffset, shard.region.data(), shard.region.size());
  write_file(path, shard.file());
  EXPECT_DEATH({ TraceReader reader(path); },
               "trace store: unsupported shard version in "
               ".*shard-00016\\.mft");
  std::remove(path.c_str());
}

TEST(TraceStoreDeathTest, FlippedPayloadByteRejected) {
  // One payload byte of a middle record of a multi-record shard: the
  // record checksum catches it whether the reader's chunks run on one
  // thread or four. The death-test child re-runs the test, so its pool
  // starts with its threads.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = shard_path(temp_dir(), 17);
  const std::vector<DimmTrace> traces = repeated(corpus(), 50);
  write_shard(path, traces);
  const HandBuiltShard layout = hand_built(traces);
  const std::size_t middle = traces.size() / 2;
  const std::uint64_t payload_bytes =
      layout.frames[middle + 1] - layout.payload[middle];
  flip_byte(path, 24 + layout.payload[middle] + payload_bytes / 2, 0x5a);
  for (const int threads : {1, 4}) {
    const ThreadPool::ScopedLimit limit(threads);
    EXPECT_DEATH({ TraceReader reader(path); }, "trace store")
        << threads << " threads";
  }
  std::remove(path.c_str());
}

TEST(TraceStoreDeathTest, FlippedLengthPrefixRejected) {
  // The same middle record's length prefix: the frame no longer ends where
  // the index puts the next one.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = shard_path(temp_dir(), 18);
  const std::vector<DimmTrace> traces = repeated(corpus(), 50);
  write_shard(path, traces);
  const std::size_t middle = traces.size() / 2;
  flip_byte(path, 24 + hand_built(traces).frames[middle], 0x01);
  for (const int threads : {1, 4}) {
    const ThreadPool::ScopedLimit limit(threads);
    EXPECT_DEATH({ TraceReader reader(path); }, "trace store")
        << threads << " threads";
  }
  std::remove(path.c_str());
}

TEST(TraceStoreShard, ReadIsThreadCountInvariant) {
  // The reader fills and verifies the region in parallel chunks: one
  // thread and four decode the same traces.
  const std::string path = shard_path(temp_dir(), 19);
  const std::vector<DimmTrace> traces = repeated(corpus(), 300);
  write_shard(path, traces);
  std::vector<DimmTrace> serial;
  {
    const ThreadPool::ScopedLimit limit(1);
    const TraceReader reader(path);
    for (std::size_t i = 0; i < reader.dimm_count(); ++i) {
      serial.push_back(reader.read_dimm(i));
    }
  }
  const ThreadPool::ScopedLimit limit(4);
  const TraceReader reader(path);
  ASSERT_EQ(reader.dimm_count(), traces.size());
  ASSERT_EQ(serial.size(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "record " << i);
    const DimmTrace parallel = reader.read_dimm(i);
    expect_traces_equal(serial[i], parallel);
    EXPECT_EQ(trace_content_hash(parallel), trace_content_hash(traces[i]));
  }
  std::remove(path.c_str());
}

/// A record of `empty_trace` whose count field `from_end` bytes before the
/// end (4: CEs, 3: events) claims 2^62 entries.
std::vector<std::uint8_t> huge_count_record(std::size_t from_end) {
  std::vector<std::uint8_t> record;
  encode_dimm_record(empty_trace(), record);
  const auto at = record.end() - static_cast<std::ptrdiff_t>(from_end);
  EXPECT_EQ(*at, 0u);
  std::vector<std::uint8_t> count;
  push_varint(count, 1ULL << 62);
  record.erase(at);
  record.insert(record.end() - static_cast<std::ptrdiff_t>(from_end - 1),
                count.begin(), count.end());
  return record;
}

TEST(TraceStoreDeathTest, HugeCountsRejected) {
  // A count is bounded by the bytes left before it sizes a vector, so a
  // checksum-valid record claiming 2^62 CEs or events dies with a named
  // diagnostic rather than an uncaught std::length_error.
  const std::string path = shard_path(temp_dir(), 20);
  HandBuiltShard shard;
  shard.add(huge_count_record(4));
  shard.add(huge_count_record(3));
  write_file(path, shard.file());
  EXPECT_DEATH(TraceReader(path).read_dimm(0),
               "trace store: CE count exceeds the record in "
               ".*shard-00020\\.mft \\(record 0\\)");
  EXPECT_DEATH(TraceReader(path).read_dimm(1),
               "trace store: event count exceeds the record in "
               ".*shard-00020\\.mft \\(record 1\\)");
  std::remove(path.c_str());
}

TEST(TraceStoreDeathTest, HugeIndexCountRejected) {
  // An index entry takes at least one byte: a count of 2^62 dies before
  // the reader sizes its record table.
  const std::string path = shard_path(temp_dir(), 21);
  HandBuiltShard shard = hand_built({sparse_trace()});
  std::vector<std::uint8_t> index;
  push_varint(index, 1ULL << 62);
  index.push_back(0x00);
  write_file(path, shard.file(index));
  EXPECT_DEATH({ TraceReader reader(path); },
               "trace store: index count exceeds the index in "
               ".*shard-00021\\.mft");
  std::remove(path.c_str());
}

TEST(TraceStoreDeathTest, DiagnosticsNameTheShardFile) {
  // Which shard of a thousand-file fleet store died used to be guesswork:
  // reader diagnostics must carry the offending path.
  const std::string path = shard_path(temp_dir(), 5);
  {
    ShardWriter writer(path, dram::Platform::kIntelPurley, days(10));
    writer.append(sparse_trace());
    writer.finish();
  }
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 9);
  EXPECT_DEATH({ TraceReader reader(path); }, "shard-00005\\.mft");
  std::remove(path.c_str());
}

TEST(TraceStoreDeathTest, DecodeContextNamesPathAndRecord) {
  // The per-record decode context (" in <path> (record N)") reaches the
  // cursor-level checks, so a payload that dies mid-field still reports
  // which record of which shard it came from.
  const std::vector<std::uint8_t> garbage = {0xff, 0xff, 0xff, 0xff, 0xff,
                                             0xff, 0xff, 0xff, 0xff, 0x01};
  EXPECT_DEATH(
      decode_dimm_record({garbage.data(), garbage.size()},
                         dram::Platform::kIntelPurley,
                         " in shard-00042.mft (record 7)"),
      "in shard-00042\\.mft \\(record 7\\)");
}

TEST(TraceStoreDeathTest, WriterRejectsUnopenablePath) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "memfp_no_such_dir" /
       "shard-00000.mft")
          .string();
  std::filesystem::remove_all(
      std::filesystem::temp_directory_path() / "memfp_no_such_dir");
  EXPECT_DEATH(ShardWriter(path, dram::Platform::kIntelPurley, days(10)),
               "cannot open .*shard-00000\\.mft");
}

TEST(TraceStoreDeathTest, WriterChecksStreamStateOnAppend) {
  // Full-disk regression: a failing write used to pass silently and only
  // surface as a checksum mismatch at the next decode. /dev/full opens fine
  // but fails every flush with ENOSPC, so appending past the stream buffer
  // must die at the append-side check, naming the path.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  EXPECT_DEATH(
      {
        ShardWriter writer("/dev/full", dram::Platform::kIntelPurley,
                           days(10));
        for (int i = 0; i < 256; ++i) writer.append(storm_heavy_trace());
      },
      "append write failed on /dev/full");
  const std::vector<DimmTrace> batch = repeated({storm_heavy_trace()}, 256);
  EXPECT_DEATH(
      {
        ShardWriter writer("/dev/full", dram::Platform::kIntelPurley,
                           days(10));
        writer.append(batch);
      },
      "append write failed on /dev/full");
}

TEST(TraceStoreDeathTest, WriterChecksStreamStateOnFinish) {
  // finish() flushes before close, so even a shard whose appends all fit in
  // the stream buffer reports the full disk here — with the path — instead
  // of handing back a truncated file.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  EXPECT_DEATH(
      {
        ShardWriter writer("/dev/full", dram::Platform::kIntelPurley,
                           days(10));
        writer.finish();
      },
      "footer write failed on /dev/full");
}

TEST(TraceStoreShard, ListShardsNumericOrderBeyondPadding) {
  // Past 99,999 shards the %05zu names widen, where lexicographic order
  // puts shard-100000 before shard-99999; the listing must sort by the
  // parsed numeric index. list_shards never opens the files, so empty
  // placeholders are enough.
  const auto dir =
      std::filesystem::temp_directory_path() / "memfp_trace_store_wide";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const char* name : {"shard-100000.mft", "shard-99999.mft",
                           "shard-00002.mft"}) {
    std::ofstream(dir / name, std::ios::binary);
  }
  const std::vector<std::string> shards = list_shards(dir.string());
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0], (dir / "shard-00002.mft").string());
  EXPECT_EQ(shards[1], (dir / "shard-99999.mft").string());
  EXPECT_EQ(shards[2], (dir / "shard-100000.mft").string());
  std::filesystem::remove_all(dir);
}

TEST(TraceStoreShard, ListShardsSorted) {
  const auto dir =
      std::filesystem::temp_directory_path() / "memfp_trace_store_list";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const std::size_t index : {2u, 0u, 1u}) {
    ShardWriter writer(shard_path(dir.string(), index),
                       dram::Platform::kIntelPurley, days(1));
    writer.finish();
  }
  const std::vector<std::string> shards = list_shards(dir.string());
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0], shard_path(dir.string(), 0));
  EXPECT_EQ(shards[2], shard_path(dir.string(), 2));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace memfp::sim
