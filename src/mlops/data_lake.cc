#include "mlops/data_lake.h"

#include <filesystem>
#include <set>
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
    // A replaced shard set is dead on disk too (idempotent backfill), but a
    // file the replacement holds is live: re-adopting the same set keeps it.
    const std::set<std::string> live(next.shard_files.begin(),
                                     next.shard_files.end());
    std::error_code ec;
    for (const std::string& path : it->second.shard_files) {
      if (live.count(path) == 0) std::filesystem::remove(path, ec);
    }
    for (const std::string& path : it->second.shard_files) {
      // Prune an emptied shard directory; remove() refuses (sets ec) while
      // entries remain, so a shared or still-live directory is left alone.
      if (live.count(path) == 0) {
        std::filesystem::remove(std::filesystem::path(path).parent_path(), ec);
      }
    }
  }
  record_count_ += next.meta.records;
  partitions_[partition] = std::move(next);
}

void DataLake::ingest(const std::string& partition, sim::FleetTrace trace) {
  Partition next;
  next.meta.platform = trace.platform;
  next.meta.horizon = trace.horizon;
  next.meta.dimms = trace.dimms.size();
  next.meta.records = trace_records(trace);
  next.resident = std::move(trace);
  replace(partition, std::move(next));
}

void DataLake::ingest_shards(const std::string& partition,
                             const std::string& dir) {
  if (!std::filesystem::is_directory(dir)) {
    throw std::invalid_argument("DataLake: " + dir + " is not a directory");
  }
  Partition next;
  for (const std::string& shard : sim::list_shards(dir)) {
    // Canonical paths, so one file reached through two spellings of `dir`
    // is recognised as the same file by the ownership check and replace().
    next.shard_files.push_back(std::filesystem::canonical(shard).string());
  }
  if (next.shard_files.empty()) {
    throw std::invalid_argument("DataLake: no shards under " + dir);
  }
  const std::set<std::string> incoming(next.shard_files.begin(),
                                       next.shard_files.end());
  for (const auto& [key, owner] : partitions_) {
    if (key == partition) continue;
    for (const std::string& path : owner.shard_files) {
      if (incoming.count(path) != 0) {
        throw std::invalid_argument("DataLake: shard " + path +
                                    " is already owned by partition " + key);
      }
    }
  }
  next.meta.spilled = true;
  for (std::size_t s = 0; s < next.shard_files.size(); ++s) {
    const sim::TraceReader reader(next.shard_files[s]);
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
