// ECC scheme models.
//
// The real platform codes are confidential (paper Section II-B), so we model
// each platform's *correction boundary* — the property all four paper
// findings depend on:
//
//  - SEC-DED: classic per-beat single-error-correct / double-error-detect,
//    used as a reference scheme in tests.
//  - K920-SDDC (Chipkill-class): corrects any error confined to a single
//    device; any transfer with errors from two or more devices is
//    uncorrectable.
//  - Intel Purley: corrects most single-device errors, but is vulnerable to
//    certain single-chip patterns (Li et al. SC'22): two or more error DQs
//    over two or more beats with a wide beat span escape correction.
//    Multi-device errors are uncorrectable.
//  - Intel Whitley: hardened against single-device patterns (adaptive
//    correction absorbs narrow multi-device errors too), but wide
//    multi-device patterns (>=4 DQs over >=5 beats) are uncorrectable.
#pragma once

#include <memory>
#include <string>

#include "dram/error_pattern.h"
#include "dram/geometry.h"

namespace memfp::dram {

enum class EccVerdict { kNoError, kCorrected, kUncorrected };

const char* verdict_name(EccVerdict verdict);

/// A deterministic classifier from transfer error pattern to ECC outcome.
class EccScheme {
 public:
  virtual ~EccScheme() = default;
  virtual EccVerdict classify(const ErrorPattern& pattern,
                              const Geometry& geometry) const = 0;
  virtual std::string name() const = 0;
};

/// Per-beat SEC-DED (Hsiao code behaviour): one flipped bit per 72-bit beat
/// word is corrected; two or more in the same beat are uncorrectable.
class SecDedEcc final : public EccScheme {
 public:
  EccVerdict classify(const ErrorPattern& pattern,
                      const Geometry& geometry) const override;
  std::string name() const override { return "SEC-DED"; }
};

/// Chipkill-class single-device data correction (the K920's code).
class ChipkillSddcEcc final : public EccScheme {
 public:
  EccVerdict classify(const ErrorPattern& pattern,
                      const Geometry& geometry) const override;
  std::string name() const override { return "K920-SDDC"; }
};

/// Intel Purley-generation code with the single-chip weakness of [7].
class PurleyEcc final : public EccScheme {
 public:
  /// Single-device patterns with >= kMinDq DQs, >= kMinBeats beats and beat
  /// span >= kMinBeatSpan escape correction.
  static constexpr int kMinDq = 2;
  static constexpr int kMinBeats = 2;
  static constexpr int kMinBeatSpan = 4;

  EccVerdict classify(const ErrorPattern& pattern,
                      const Geometry& geometry) const override;
  std::string name() const override { return "Purley-SDDC"; }
};

/// Intel Whitley-generation code: stronger per-device correction, adaptive
/// absorption of narrow cross-device errors, uncorrectable only for wide
/// multi-device patterns.
class WhitleyEcc final : public EccScheme {
 public:
  static constexpr int kMinDq = 4;
  static constexpr int kMinBeats = 5;

  EccVerdict classify(const ErrorPattern& pattern,
                      const Geometry& geometry) const override;
  std::string name() const override { return "Whitley-SDDC"; }
};

/// The ECC deployed on each studied platform.
std::unique_ptr<EccScheme> make_platform_ecc(Platform platform);

/// A sweepable ECC selection: either the platform's own deployed code
/// (kPlatform) or one of the four modelled schemes forced onto the fleet.
/// This is the ECC axis of the campaign engine (core/campaign.h) — the same
/// fault population classified under a different correction boundary yields
/// a different observable CE/UE mix, which is exactly the fault × ECC study
/// an injection campaign sweeps.
enum class EccChoice {
  kPlatform,
  kSecDed,
  kChipkillSddc,
  kPurley,
  kWhitley,
};

/// Builds the chosen scheme; kPlatform defers to make_platform_ecc.
std::unique_ptr<EccScheme> make_ecc(EccChoice choice, Platform platform);

}  // namespace memfp::dram
