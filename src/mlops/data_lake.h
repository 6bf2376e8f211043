// Data Pipeline stage of the MLOps framework (paper Fig 6): raw telemetry
// from the BMC collectors lands in an append-only, source-partitioned lake.
// An in-process stand-in for Huawei's DLI: same dataflow, no cluster.
//
// A partition is either *resident* (a FleetTrace in memory, from ingest) or
// *spilled* (a sealed shard set of compact binary trace-store files on disk,
// see src/sim/trace_store.h, adopted with ingest_shards; the fleet driver's
// keep_store run is what writes one). Consumers that stream (for_each_dimm)
// never notice the difference, while whole-trace consumers use get()
// (resident only) or materialize() (decodes a spilled partition back into a
// FleetTrace).
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/trace.h"

namespace memfp::mlops {

class DataLake {
 public:
  /// Stores a fleet snapshot as a resident partition under a key, e.g.
  /// "bmc/purley/2023H1". Re-ingesting an existing partition replaces it
  /// (idempotent backfills); a replaced shard set's files are deleted.
  void ingest(const std::string& partition, sim::FleetTrace trace);

  /// Adopts an existing sealed shard set (e.g. written by the fleet driver
  /// with keep_store) as a spilled partition, without re-encoding it (one
  /// decode pass seeds the record counter). The lake takes ownership of the
  /// files; the directory must hold at least one shard and all shards must
  /// agree on platform and horizon. Re-adopting the partition's own shard
  /// set is an idempotent backfill that keeps the files; a shard another
  /// partition owns throws std::invalid_argument.
  void ingest_shards(const std::string& partition, const std::string& dir);

  bool contains(const std::string& partition) const;
  /// True when the partition is backed by on-disk shards.
  bool spilled(const std::string& partition) const;

  /// Resident access. Throws std::out_of_range when the partition is
  /// missing and std::logic_error when it is spilled (stream it with
  /// for_each_dimm, or decode it with materialize).
  const sim::FleetTrace& get(const std::string& partition) const;

  /// Decodes a partition into a resident FleetTrace by value (works for
  /// both backings). The spilled shard set stays on disk untouched.
  sim::FleetTrace materialize(const std::string& partition) const;

  /// Streams every DIMM of a partition in id order, one at a time —
  /// resident or spilled, the visitor sees the identical sequence of
  /// DimmTrace values. Spilled partitions hold one decoded DIMM (plus one
  /// shard's encoded bytes) resident at a time.
  void for_each_dimm(
      const std::string& partition,
      const std::function<void(const sim::DimmTrace&)>& visit) const;

  struct PartitionInfo {
    dram::Platform platform = dram::Platform::kIntelPurley;
    SimTime horizon = 0;
    std::size_t dimms = 0;
    std::size_t records = 0;
    bool spilled = false;
  };
  /// Metadata for any partition regardless of backing.
  PartitionInfo info(const std::string& partition) const;

  std::vector<std::string> partitions() const;

  /// Total raw records (CE + UE + events) across all partitions — the
  /// ingest-rate counter surfaced by the monitoring dashboards. O(1):
  /// maintained incrementally on ingest/replace.
  std::size_t record_count() const { return record_count_; }

 private:
  struct Partition {
    sim::FleetTrace resident;              // valid iff shard_files.empty()
    std::vector<std::string> shard_files;  // canonical; valid iff non-empty
    PartitionInfo meta;
  };

  /// Installs `next`, deleting the old partition's shard files except those
  /// `next` holds itself.
  void replace(const std::string& partition, Partition next);

  std::map<std::string, Partition> partitions_;
  std::size_t record_count_ = 0;
};

}  // namespace memfp::mlops
