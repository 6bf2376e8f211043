#include "mlops/data_lake.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "sim/trace_store.h"

namespace memfp::mlops {

namespace {

std::size_t trace_records(const sim::FleetTrace& trace) {
  std::size_t total = 0;
  for (const sim::DimmTrace& dimm : trace.dimms) {
    total += dimm.ces.size() + dimm.events.size() + (dimm.ue ? 1 : 0);
  }
  return total;
}

}  // namespace

void DataLake::replace(const std::string& partition, Partition next) {
  const auto it = partitions_.find(partition);
  if (it != partitions_.end()) {
    record_count_ -= it->second.meta.records;
    // A replaced spill is dead on disk too (idempotent backfill). Every
    // spill ingest writes into a fresh generation directory, so the old
    // generation's paths can never alias the replacement's files.
    std::error_code ec;
    for (const std::string& path : it->second.shard_files) {
      std::filesystem::remove(path, ec);
    }
    for (const std::string& path : it->second.shard_files) {
      // Prune the emptied generation directory; remove() refuses (sets ec)
      // while entries remain, so a shared/adopted dir is left alone.
      std::filesystem::remove(std::filesystem::path(path).parent_path(), ec);
    }
  }
  record_count_ += next.meta.records;
  partitions_[partition] = std::move(next);
}

std::string DataLake::spill_dir_for(const std::string& partition,
                                    std::size_t generation) const {
  // The sanitized leaf alone is ambiguous ("a/b" and "a_b" collide), so it
  // carries a hash of the raw key; the generation counter gives every spill
  // ingest a directory no earlier generation ever wrote to, which is what
  // makes replacing a live spilled partition safe.
  std::string leaf;
  leaf.reserve(partition.size() + 26);
  for (const char c : partition) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-';
    leaf.push_back(safe ? c : '_');
  }
  const std::uint64_t hash =
      sim::fnv1a_bytes(sim::kFnvOffset, partition.data(), partition.size());
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), "-%016llx-g%06zu",
                static_cast<unsigned long long>(hash), generation);
  leaf += suffix;
  return (std::filesystem::path(spill_.dir) / leaf).string();
}

void DataLake::ingest(const std::string& partition, sim::FleetTrace trace) {
  Partition next;
  next.meta.platform = trace.platform;
  next.meta.horizon = trace.horizon;
  next.meta.dimms = trace.dimms.size();
  next.meta.records = trace_records(trace);

  const bool spill = !spill_.dir.empty() &&
                     trace.dimms.size() > spill_.max_resident_dimms;
  if (!spill) {
    next.resident = std::move(trace);
    replace(partition, std::move(next));
    return;
  }

  // Spill on ingest: encode the snapshot into a fresh shard set and keep
  // only the metadata resident. The generation counter guarantees the new
  // shards never land on the previous spill's paths, so replace() below can
  // delete the old files without touching these.
  const std::string dir = spill_dir_for(partition, spill_seq_++);
  std::filesystem::create_directories(dir);
  const std::size_t per_shard = std::max<std::size_t>(1, spill_.dimms_per_shard);
  for (std::size_t begin = 0, shard = 0; begin < trace.dimms.size();
       begin += per_shard, ++shard) {
    const std::size_t end =
        std::min(trace.dimms.size(), begin + per_shard);
    const std::string path = sim::shard_path(dir, shard);
    sim::ShardWriter writer(path, trace.platform, trace.horizon);
    writer.append(std::span<const sim::DimmTrace>(trace.dimms)
                      .subspan(begin, end - begin));
    writer.finish();
    next.shard_files.push_back(path);
  }
  next.meta.spilled = true;
  replace(partition, std::move(next));
}

void DataLake::ingest_shards(const std::string& partition,
                             const std::string& dir) {
  if (!std::filesystem::is_directory(dir)) {
    throw std::invalid_argument("DataLake: " + dir + " is not a directory");
  }
  const std::vector<std::string> shards = sim::list_shards(dir);
  if (shards.empty()) {
    throw std::invalid_argument("DataLake: no shards under " + dir);
  }
  Partition next;
  next.shard_files = shards;
  next.meta.spilled = true;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const sim::TraceReader reader(shards[s]);
    if (s == 0) {
      next.meta.platform = reader.platform();
      next.meta.horizon = reader.horizon();
    } else if (reader.platform() != next.meta.platform ||
               reader.horizon() != next.meta.horizon) {
      throw std::invalid_argument("DataLake: mixed platform/horizon in " +
                                  dir);
    }
    next.meta.dimms += reader.dimm_count();
    // One decode pass to seed the cached record counter; the shard bytes
    // themselves are adopted as-is.
    for (std::size_t i = 0; i < reader.dimm_count(); ++i) {
      const sim::DimmTrace dimm = reader.read_dimm(i);
      next.meta.records +=
          dimm.ces.size() + dimm.events.size() + (dimm.ue ? 1 : 0);
    }
  }
  replace(partition, std::move(next));
}

bool DataLake::contains(const std::string& partition) const {
  return partitions_.count(partition) > 0;
}

bool DataLake::spilled(const std::string& partition) const {
  const auto it = partitions_.find(partition);
  return it != partitions_.end() && it->second.meta.spilled;
}

const sim::FleetTrace& DataLake::get(const std::string& partition) const {
  const auto it = partitions_.find(partition);
  if (it == partitions_.end()) {
    throw std::out_of_range("DataLake: no partition " + partition);
  }
  if (it->second.meta.spilled) {
    throw std::logic_error("DataLake: partition " + partition +
                           " is spilled to disk; use for_each_dimm or "
                           "materialize");
  }
  return it->second.resident;
}

sim::FleetTrace DataLake::materialize(const std::string& partition) const {
  const auto it = partitions_.find(partition);
  if (it == partitions_.end()) {
    throw std::out_of_range("DataLake: no partition " + partition);
  }
  if (!it->second.meta.spilled) {
    return it->second.resident;
  }
  sim::FleetTrace fleet;
  fleet.platform = it->second.meta.platform;
  fleet.horizon = it->second.meta.horizon;
  fleet.dimms.reserve(it->second.meta.dimms);
  for (const std::string& path : it->second.shard_files) {
    const sim::TraceReader reader(path);
    for (std::size_t i = 0; i < reader.dimm_count(); ++i) {
      fleet.dimms.push_back(reader.read_dimm(i));
    }
  }
  return fleet;
}

void DataLake::for_each_dimm(
    const std::string& partition,
    const std::function<void(const sim::DimmTrace&)>& visit) const {
  const auto it = partitions_.find(partition);
  if (it == partitions_.end()) {
    throw std::out_of_range("DataLake: no partition " + partition);
  }
  if (!it->second.meta.spilled) {
    for (const sim::DimmTrace& dimm : it->second.resident.dimms) {
      visit(dimm);
    }
    return;
  }
  for (const std::string& path : it->second.shard_files) {
    const sim::TraceReader reader(path);
    for (std::size_t i = 0; i < reader.dimm_count(); ++i) {
      visit(reader.read_dimm(i));
    }
  }
}

DataLake::PartitionInfo DataLake::info(const std::string& partition) const {
  const auto it = partitions_.find(partition);
  if (it == partitions_.end()) {
    throw std::out_of_range("DataLake: no partition " + partition);
  }
  return it->second.meta;
}

std::vector<std::string> DataLake::partitions() const {
  std::vector<std::string> keys;
  keys.reserve(partitions_.size());
  for (const auto& [key, value] : partitions_) keys.push_back(key);
  return keys;
}

}  // namespace memfp::mlops
