#include "dram/ecc.h"

#include <array>

#include "common/check.h"

namespace memfp::dram {

const char* verdict_name(EccVerdict verdict) {
  switch (verdict) {
    case EccVerdict::kNoError:
      return "no-error";
    case EccVerdict::kCorrected:
      return "corrected";
    case EccVerdict::kUncorrected:
      return "uncorrected";
  }
  return "?";
}

EccVerdict SecDedEcc::classify(const ErrorPattern& pattern,
                               const Geometry& geometry) const {
  if (pattern.empty()) return EccVerdict::kNoError;
  std::array<int, 16> per_beat{};
  // The per-beat tally assumes the burst fits the fixed 16-slot word; DDR4/5
  // geometries in the study use 8 or 16 beats.
  MEMFP_CHECK_LE(geometry.beats, static_cast<int>(per_beat.size()))
      << "SEC-DED word model supports at most 16 beats per burst";
  for (const ErrorBit& bit : pattern.bits()) {
    if (bit.beat < per_beat.size() && ++per_beat[bit.beat] > 1) {
      return EccVerdict::kUncorrected;
    }
  }
  (void)geometry;
  return EccVerdict::kCorrected;
}

EccVerdict ChipkillSddcEcc::classify(const ErrorPattern& pattern,
                                     const Geometry& geometry) const {
  if (pattern.empty()) return EccVerdict::kNoError;
  return pattern.single_device(geometry) ? EccVerdict::kCorrected
                                         : EccVerdict::kUncorrected;
}

EccVerdict PurleyEcc::classify(const ErrorPattern& pattern,
                               const Geometry& geometry) const {
  if (pattern.empty()) return EccVerdict::kNoError;
  if (!pattern.single_device(geometry)) return EccVerdict::kUncorrected;
  const bool weak_region = pattern.dq_count() >= kMinDq &&
                           pattern.beat_count() >= kMinBeats &&
                           pattern.beat_span() >= kMinBeatSpan;
  return weak_region ? EccVerdict::kUncorrected : EccVerdict::kCorrected;
}

EccVerdict WhitleyEcc::classify(const ErrorPattern& pattern,
                                const Geometry& geometry) const {
  if (pattern.empty()) return EccVerdict::kNoError;
  if (pattern.single_device(geometry)) return EccVerdict::kCorrected;
  const bool wide = pattern.dq_count() >= kMinDq &&
                    pattern.beat_count() >= kMinBeats;
  return wide ? EccVerdict::kUncorrected : EccVerdict::kCorrected;
}

std::unique_ptr<EccScheme> make_platform_ecc(Platform platform) {
  switch (platform) {
    case Platform::kIntelPurley:
      return std::make_unique<PurleyEcc>();
    case Platform::kIntelWhitley:
      return std::make_unique<WhitleyEcc>();
    case Platform::kK920:
      return std::make_unique<ChipkillSddcEcc>();
  }
  return nullptr;
}

std::unique_ptr<EccScheme> make_ecc(EccChoice choice, Platform platform) {
  switch (choice) {
    case EccChoice::kPlatform:
      return make_platform_ecc(platform);
    case EccChoice::kSecDed:
      return std::make_unique<SecDedEcc>();
    case EccChoice::kChipkillSddc:
      return std::make_unique<ChipkillSddcEcc>();
    case EccChoice::kPurley:
      return std::make_unique<PurleyEcc>();
    case EccChoice::kWhitley:
      return std::make_unique<WhitleyEcc>();
  }
  return nullptr;
}

}  // namespace memfp::dram
