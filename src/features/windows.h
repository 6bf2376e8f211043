// The paper's prediction-problem geometry (Fig 3): at time t the model looks
// back over an observation window dt_d and predicts whether a UE occurs in
// [t + dt_l, t + dt_l + dt_p], where dt_l is the operational lead time.
#pragma once

#include "common/time.h"

namespace memfp::features {

/// Trailing sub-windows of the temporal feature group (CE counts over the
/// last 1h / 6h / 1d / 3d inside the observation window). Shared between the
/// incremental WindowState and the equivalence tests.
inline constexpr SimDuration kSubWindows[4] = {kHour, hours(6), kDay, days(3)};

struct PredictionWindows {
  SimDuration observation = days(5);   ///< dt_d
  SimDuration lead = hours(3);         ///< dt_l (paper: up to 3h)
  SimDuration prediction = days(30);   ///< dt_p
  /// Cadence at which samples/predictions are generated. The paper predicts
  /// every 5 minutes online; offline datasets are built at a daily cadence
  /// (feature vectors only change when new CEs arrive).
  SimDuration cadence = days(1);

  /// Label for a sample at `t` on a DIMM whose (first) UE is at `ue_time`;
  /// -1 = ambiguous "too late" zone (0 < ue - t < lead), excluded from
  /// training because no proactive action could succeed there.
  int label_for(SimTime t, SimTime ue_time) const {
    const SimTime delta = ue_time - t;
    if (delta <= 0) return 0;  // UE already happened (samples stop anyway)
    if (delta < lead) return -1;
    if (delta <= lead + prediction) return 1;
    return 0;
  }

  /// Whether an alarm at `alarm` is a true positive for a UE at `ue_time`:
  /// the UE lands no sooner than `lead` and no later than `lead +
  /// prediction` after it (paper Section IV).
  bool timely(SimTime alarm, SimTime ue_time) const {
    const SimTime delta = ue_time - alarm;
    return delta >= lead && delta <= lead + prediction;
  }
};

}  // namespace memfp::features
