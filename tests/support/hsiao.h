// A real (72,64) Hsiao SEC-DED code (Hsiao 1970, paper reference [4]): the
// codec that ECC DIMM transfers actually run per beat — 64 data bits plus 8
// check bits whose parity-check matrix uses only odd-weight columns, giving
// single-error correction and guaranteed double-error detection.
//
// The pattern-level SecDedEcc classifier in src/dram/ecc.h models the
// *outcome*; this codec implements the *mechanism* (encode, syndrome decode,
// correction), and the test suite proves the two agree on every pattern they
// both cover. It is a test oracle: nothing under src/ depends on it.
#pragma once

#include <cstdint>
#include <optional>

namespace memfp::dram {

/// One 72-bit beat word: 64 data bits + 8 check bits.
struct Codeword72 {
  std::uint64_t data = 0;
  std::uint8_t check = 0;
};

enum class DecodeStatus {
  kClean,               ///< syndrome zero, no error
  kCorrectedData,       ///< one data bit flipped and repaired
  kCorrectedCheck,      ///< one check bit flipped and repaired
  kDetectedUncorrectable  ///< multi-bit error detected, cannot repair
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kClean;
  std::uint64_t data = 0;                 ///< corrected payload
  std::optional<int> corrected_bit;       ///< flipped position (0-71), if any
};

class HsiaoCode {
 public:
  HsiaoCode();

  /// Computes the 8 check bits for a 64-bit payload.
  Codeword72 encode(std::uint64_t data) const;

  /// Syndrome-decodes a (possibly corrupted) codeword.
  DecodeResult decode(const Codeword72& word) const;

  /// Parity-check column for a bit position (0-63 data, 64-71 check).
  std::uint8_t column(int position) const { return columns_[position]; }

 private:
  std::uint8_t syndrome(const Codeword72& word) const;

  std::uint8_t columns_[72];
  // syndrome value -> bit position (or -1); dense 256-entry lookup.
  int position_of_syndrome_[256];
};

}  // namespace memfp::dram
