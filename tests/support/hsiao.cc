#include "support/hsiao.h"

#include <bit>

namespace memfp::dram {

HsiaoCode::HsiaoCode() {
  // Check-bit positions get the weight-1 columns (the identity block), so a
  // flipped check bit yields a one-hot syndrome.
  for (int i = 0; i < 8; ++i) {
    columns_[64 + i] = static_cast<std::uint8_t>(1u << i);
  }
  // Data positions take distinct odd-weight (>=3) columns. Hsiao's insight:
  // with only odd-weight columns, any double error has an even-weight
  // (hence non-column) syndrome, so double errors are always detected and
  // never miscorrected. Enumerate weight-3 columns first (56 of them), then
  // weight-5 until all 64 data positions are covered — the classic
  // minimum-weight construction that also balances per-row parity fan-in.
  int next = 0;
  for (int weight : {3, 5}) {
    for (int value = 0; value < 256 && next < 64; ++value) {
      if (std::popcount(static_cast<unsigned>(value)) == weight) {
        columns_[next++] = static_cast<std::uint8_t>(value);
      }
    }
  }

  for (int& entry : position_of_syndrome_) entry = -1;
  for (int position = 0; position < 72; ++position) {
    position_of_syndrome_[columns_[position]] = position;
  }
}

Codeword72 HsiaoCode::encode(std::uint64_t data) const {
  Codeword72 word;
  word.data = data;
  std::uint8_t check = 0;
  std::uint64_t bits = data;
  while (bits != 0) {
    const int position = std::countr_zero(bits);
    check ^= columns_[position];
    bits &= bits - 1;
  }
  word.check = check;
  return word;
}

std::uint8_t HsiaoCode::syndrome(const Codeword72& word) const {
  // Syndrome = H * received: the recomputed check XOR the stored check.
  return static_cast<std::uint8_t>(encode(word.data).check ^ word.check);
}

DecodeResult HsiaoCode::decode(const Codeword72& word) const {
  DecodeResult result;
  result.data = word.data;
  const std::uint8_t s = syndrome(word);
  if (s == 0) {
    result.status = DecodeStatus::kClean;
    return result;
  }
  const int position = position_of_syndrome_[s];
  if (position < 0) {
    // Even-weight or unused syndrome: at least two bits flipped.
    result.status = DecodeStatus::kDetectedUncorrectable;
    return result;
  }
  result.corrected_bit = position;
  if (position < 64) {
    result.data ^= 1ULL << position;
    result.status = DecodeStatus::kCorrectedData;
  } else {
    result.status = DecodeStatus::kCorrectedCheck;
  }
  return result;
}

}  // namespace memfp::dram
