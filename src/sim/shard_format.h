// Shard layout constants and the record checksum step, shared by the write
// side (trace_store.cc) and the read side (trace_reader.cc) of the trace
// store. Internal to src/sim: the format is documented in trace_store.h.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/trace_store.h"

namespace memfp::sim {

inline constexpr char kHeaderMagic[8] = {'M', 'F', 'T', 'S',
                                         'H', 'R', 'D', '1'};
inline constexpr char kFooterMagic[8] = {'M', 'F', 'T', 'S',
                                         'E', 'N', 'D', '1'};
inline constexpr std::uint32_t kFormatVersion = 2;
// magic + version + platform + horizon
inline constexpr std::size_t kHeaderBytes = 24;
// index offset + checksum + magic
inline constexpr std::size_t kFooterBytes = 24;

/// One record's step of the footer checksum: its payload length, then its
/// payload's FNV-1a content hash.
inline std::uint64_t fold_record(std::uint64_t h, std::uint64_t len,
                                 std::uint64_t payload_hash) {
  return fnv1a_u64(fnv1a_u64(h, len), payload_hash);
}

}  // namespace memfp::sim
