#include "baseline/risky_ce_pattern.h"

#include <algorithm>

namespace memfp::baseline {
namespace {

/// A device's accumulated error-bit map statistics right after CE `ce`.
struct GrowthPoint {
  std::size_t ce = 0;
  int dq_count = 0;
  int beat_count = 0;
  int beat_span = 0;
};

/// One replay of a trace's CE history. It keeps only the growth points: the
/// CEs after which some device's accumulated DQ count, beat count or beat
/// span grew. All three, like the lifetime CE count, only grow as CEs
/// accumulate, so a rule's device-map gates first hold at the first growth
/// point meeting them, and the rule first fires at the later of that CE and
/// the CE that reaches `min_ces`.
class TraceReplay {
 public:
  explicit TraceReplay(const sim::DimmTrace& trace) : trace_(&trace) {
    const dram::Geometry geometry = trace.config.geometry();
    std::vector<dram::ErrorPattern> maps;  // per device
    std::vector<GrowthPoint> latest;       // per device
    for (std::size_t i = 0; i < trace.ces.size(); ++i) {
      const std::vector<dram::ErrorBit>& bits = trace.ces[i].pattern.bits();
      // Bits are sorted by lane and a device owns adjacent lanes, so each
      // touched device's bits form one run.
      for (std::size_t b = 0; b < bits.size();) {
        const int device = geometry.device_of_dq(bits[b].dq);
        const auto d = static_cast<std::size_t>(device);
        if (d >= maps.size()) {
          maps.resize(d + 1);
          latest.resize(d + 1);
        }
        for (; b < bits.size() && geometry.device_of_dq(bits[b].dq) == device;
             ++b) {
          maps[d].add(bits[b]);
        }
        const GrowthPoint now{i, maps[d].dq_count(), maps[d].beat_count(),
                              maps[d].beat_span()};
        // The span is a function of the beat set, so it can only grow when
        // the beat count does.
        GrowthPoint& last = latest[d];
        if (now.dq_count > last.dq_count || now.beat_count > last.beat_count) {
          growth_.push_back(now);
          last = now;
        }
      }
    }
  }

  /// Time of the CE after which some device first matches the rule.
  std::optional<SimTime> first_alarm(const PatternRule& rule) const {
    const auto ce_gate =
        static_cast<std::size_t>(std::max(rule.min_ces, 1) - 1);
    for (const GrowthPoint& point : growth_) {
      if (!rule.map_matches(point.dq_count, point.beat_count,
                            point.beat_span)) {
        continue;
      }
      const std::size_t ce = std::max(point.ce, ce_gate);
      if (ce >= trace_->ces.size()) return std::nullopt;
      return trace_->ces[ce].time;
    }
    return std::nullopt;
  }

  const sim::DimmTrace& trace() const { return *trace_; }

 private:
  const sim::DimmTrace* trace_;
  std::vector<GrowthPoint> growth_;  // CE order
};

}  // namespace

std::vector<PatternRule> candidate_rules() {
  std::vector<PatternRule> rules;
  for (int dq : {1, 2, 3}) {
    for (int beats : {1, 2, 3}) {
      for (int span : {0, 2, 4}) {
        for (int ces : {1, 8, 32}) {
          rules.push_back({dq, beats, span, ces});
        }
      }
    }
  }
  return rules;
}

std::optional<SimTime> first_alarm(const PatternRule& rule,
                                   const sim::DimmTrace& trace) {
  return TraceReplay(trace).first_alarm(rule);
}

bool PatternRule::map_matches(int dq_count, int beat_count,
                              int beat_span) const {
  return dq_count >= min_dq && beat_count >= min_beats &&
         beat_span >= min_beat_span;
}

RiskyCePattern::RiskyCePattern(features::PredictionWindows windows)
    : windows_(windows) {}

void RiskyCePattern::fit(const std::vector<const sim::DimmTrace*>& train) {
  rules_.clear();
  // Partition training DIMMs by manufacturer.
  std::map<dram::Manufacturer, std::vector<TraceReplay>> groups;
  for (const sim::DimmTrace* trace : train) {
    groups[trace->config.manufacturer].emplace_back(*trace);
  }
  const std::vector<PatternRule> candidates = candidate_rules();
  for (const auto& [manufacturer, replays] : groups) {
    double best_f1 = -1.0;
    PatternRule best;
    for (const PatternRule& rule : candidates) {
      std::size_t tp = 0, fp = 0, fn = 0;
      for (const TraceReplay& replay : replays) {
        const sim::DimmTrace& trace = replay.trace();
        const std::optional<SimTime> alarm = replay.first_alarm(rule);
        if (trace.predictable_ue()) {
          const SimTime ue = trace.ue->time;
          const bool timely = alarm && ue - *alarm >= windows_.lead &&
                              ue - *alarm <= windows_.lead + windows_.prediction;
          if (timely) ++tp;
          else ++fn;
          if (alarm && !timely) ++fp;  // fired outside the valid window
        } else if (alarm) {
          ++fp;
        }
      }
      const double precision =
          tp + fp == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(tp + fp);
      const double recall =
          tp + fn == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(tp + fn);
      const double f1 = precision + recall == 0.0
                            ? 0.0
                            : 2.0 * precision * recall / (precision + recall);
      if (f1 > best_f1) {
        best_f1 = f1;
        best = rule;
      }
    }
    rules_[manufacturer] = best;
  }
}

std::optional<SimTime> RiskyCePattern::first_alarm(
    const sim::DimmTrace& trace) const {
  const auto it = rules_.find(trace.config.manufacturer);
  if (it == rules_.end()) return std::nullopt;
  return baseline::first_alarm(it->second, trace);
}

}  // namespace memfp::baseline
