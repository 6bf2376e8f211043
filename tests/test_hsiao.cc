#include "support/hsiao.h"

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "common/rng.h"

namespace memfp::dram {
namespace {

Codeword72 flip(const Codeword72& word, int position) {
  Codeword72 out = word;
  if (position < 64) out.data ^= 1ULL << position;
  else out.check ^= static_cast<std::uint8_t>(1u << (position - 64));
  return out;
}

TEST(Hsiao, ColumnsAreDistinctAndOddWeight) {
  const HsiaoCode code;
  std::set<std::uint8_t> seen;
  for (int position = 0; position < 72; ++position) {
    const std::uint8_t column = code.column(position);
    EXPECT_EQ(std::popcount(static_cast<unsigned>(column)) % 2, 1)
        << "even-weight column at " << position;
    EXPECT_TRUE(seen.insert(column).second)
        << "duplicate column at " << position;
  }
}

TEST(Hsiao, CleanWordsDecodeClean) {
  const HsiaoCode code;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t data = rng.next();
    const DecodeResult result = code.decode(code.encode(data));
    EXPECT_EQ(result.status, DecodeStatus::kClean);
    EXPECT_EQ(result.data, data);
  }
}

TEST(Hsiao, EverySingleBitErrorIsCorrected) {
  const HsiaoCode code;
  Rng rng(2);
  for (int trial = 0; trial < 8; ++trial) {
    const std::uint64_t data = rng.next();
    const Codeword72 word = code.encode(data);
    for (int position = 0; position < 72; ++position) {
      const DecodeResult result = code.decode(flip(word, position));
      EXPECT_EQ(result.data, data) << "payload lost at bit " << position;
      EXPECT_TRUE(result.corrected_bit.has_value());
      EXPECT_EQ(*result.corrected_bit, position);
      EXPECT_EQ(result.status, position < 64 ? DecodeStatus::kCorrectedData
                                             : DecodeStatus::kCorrectedCheck);
    }
  }
}

TEST(Hsiao, EveryDoubleBitErrorIsDetectedNeverMiscorrected) {
  // The defining Hsiao property: odd-weight columns make every double-error
  // syndrome even-weight, so it can never alias a column. Exhaustive over
  // all C(72,2) = 2556 pairs.
  const HsiaoCode code;
  Rng rng(3);
  const std::uint64_t data = rng.next();
  const Codeword72 word = code.encode(data);
  for (int a = 0; a < 72; ++a) {
    for (int b = a + 1; b < 72; ++b) {
      const DecodeResult result = code.decode(flip(flip(word, a), b));
      EXPECT_EQ(result.status, DecodeStatus::kDetectedUncorrectable)
          << "double error (" << a << "," << b << ") slipped through";
    }
  }
}

TEST(Hsiao, SomeTripleErrorsEscape) {
  // SEC-DED makes no promise beyond two bits: with odd-weight columns a
  // triple error has an odd-weight syndrome and typically *miscorrects*.
  // This documents the real limitation the paper's platforms inherit.
  const HsiaoCode code;
  Rng rng(4);
  const Codeword72 word = code.encode(rng.next());
  int miscorrected = 0, detected = 0;
  for (int i = 0; i < 500; ++i) {
    int a = static_cast<int>(rng.uniform_u64(72));
    int b = static_cast<int>(rng.uniform_u64(72));
    int c = static_cast<int>(rng.uniform_u64(72));
    if (a == b || b == c || a == c) continue;
    const DecodeResult result =
        code.decode(flip(flip(flip(word, a), b), c));
    if (result.status == DecodeStatus::kDetectedUncorrectable) ++detected;
    else ++miscorrected;
  }
  EXPECT_GT(miscorrected, 0);  // silent data corruption is possible
}

TEST(Hsiao, EncodeIsLinear) {
  const HsiaoCode code;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t a = rng.next();
    const std::uint64_t b = rng.next();
    EXPECT_EQ(code.encode(a ^ b).check,
              code.encode(a).check ^ code.encode(b).check);
  }
  EXPECT_EQ(code.encode(0).check, 0);
}

TEST(Hsiao, AgreesWithPatternLevelClassifier) {
  // The outcome-level SecDedEcc in ecc.h and this mechanism-level codec
  // must tell the same story per beat: one flipped bit in a beat word is
  // correctable, two are not.
  const HsiaoCode code;
  const Codeword72 clean = code.encode(0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(code.decode(flip(clean, 17)).status,
            DecodeStatus::kCorrectedData);
  EXPECT_EQ(code.decode(flip(flip(clean, 17), 40)).status,
            DecodeStatus::kDetectedUncorrectable);
}

}  // namespace
}  // namespace memfp::dram
