// Codec contract of the compact binary trace store (src/sim/trace_store.h):
// encode→decode round-trips every DimmTrace field exactly, re-encoding
// reproduces the identical bytes (the golden-hash contract), and corrupt or
// truncated shards die with a clean MEMFP_CHECK diagnostic, never UB.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

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
    EXPECT_EQ(a.ces[i].pattern.bits(), b.ces[i].pattern.bits());
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
    EXPECT_EQ(a.ue->pattern.bits(), b.ue->pattern.bits());
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
      repeated(corpus(), 70),  // 280 records: spans encode windows
      {}};
  const std::string serial_path = shard_path(temp_dir(), 10);
  const std::string batch_path = shard_path(temp_dir(), 11);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const std::vector<DimmTrace>& batch = batches[b];
    ShardWriter serial(serial_path, dram::Platform::kIntelPurley, days(20));
    for (const DimmTrace& trace : batch) serial.append(trace);
    const ShardStats serial_stats = serial.finish();
    const std::vector<std::uint8_t> expected = file_bytes(serial_path);

    for (const int threads : {1, 2, 4}) {
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
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(64);
    char byte = 0;
    file.seekg(64);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(64);
    file.write(&byte, 1);
  }
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

TEST(TraceStoreDeathTest, OversizeFrameLengthRejected) {
  // A frame whose varint length is 2^64-1 makes `payload_start + len` wrap
  // around uint64, sailing under an additive bounds check. FNV-1a is not
  // cryptographic, so a hostile file can carry a consistent region checksum
  // — the reader must reject the length itself, not rely on the checksum.
  const std::string path = shard_path(temp_dir(), 4);
  const auto push_u32 = [](std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xff);
  };
  const auto push_u64 = [](std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xff);
  };

  std::vector<std::uint8_t> file;
  const char header_magic[8] = {'M', 'F', 'T', 'S', 'H', 'R', 'D', '1'};
  file.insert(file.end(), header_magic, header_magic + 8);
  push_u32(file, 1);                        // format version
  file.insert(file.end(), 4, 0);            // platform + padding
  push_u64(file, 0);                        // horizon

  // Record region: a single frame prefix, varint(2^64 - 1) = ff*9 01.
  std::vector<std::uint8_t> region(9, 0xff);
  region.push_back(0x01);
  file.insert(file.end(), region.begin(), region.end());

  std::vector<std::uint8_t> tail;
  tail.push_back(0x01);                     // index: one record...
  tail.push_back(0x00);                     // ...at offset 0
  push_u64(tail, 24 + region.size());       // index offset
  push_u64(tail, fnv1a_bytes(kFnvOffset, region.data(), region.size()));
  const char footer_magic[8] = {'M', 'F', 'T', 'S', 'E', 'N', 'D', '1'};
  tail.insert(tail.end(), footer_magic, footer_magic + 8);
  file.insert(file.end(), tail.begin(), tail.end());

  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(file.data()),
              static_cast<std::streamsize>(file.size()));
  }
  EXPECT_DEATH({ TraceReader reader(path); }, "overruns the region");
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
