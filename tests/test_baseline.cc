#include "baseline/risky_ce_pattern.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "sim/fleet.h"

namespace memfp::baseline {
namespace {

bool map_matches(const PatternRule& rule, const dram::ErrorPattern& map) {
  return rule.map_matches(map.dq_count(), map.beat_count(), map.beat_span());
}

// Serial oracle: a per-CE replay. After every CE it adds the CE's bits to each
// touched device's accumulated map and checks the rule against every device.
class DeviceMaps {
 public:
  explicit DeviceMaps(const dram::Geometry& geometry) : geometry_(geometry) {}

  void add(const dram::CeEvent& ce) {
    for (const dram::ErrorBit& bit : ce.pattern.bits()) {
      per_device_[geometry_.device_of_dq(bit.dq)].add(bit);
    }
    ++ces_;
  }

  bool any_matches(const PatternRule& rule) const {
    for (const auto& [device, pattern] : per_device_) {
      if (static_cast<int>(ces_) >= rule.min_ces &&
          map_matches(rule, pattern)) {
        return true;
      }
    }
    return false;
  }

 private:
  dram::Geometry geometry_;
  std::unordered_map<int, dram::ErrorPattern> per_device_;
  std::uint64_t ces_ = 0;
};

std::optional<SimTime> oracle_first_alarm(const sim::DimmTrace& trace,
                                          const PatternRule& rule) {
  DeviceMaps maps(trace.config.geometry());
  for (const dram::CeEvent& ce : trace.ces) {
    maps.add(ce);
    if (maps.any_matches(rule)) return ce.time;
  }
  return std::nullopt;
}

/// Oracle alarm of every candidate rule on every trace, one per-CE replay
/// each: table[t][r] for traces[t] under candidate_rules()[r].
using AlarmTable = std::vector<std::vector<std::optional<SimTime>>>;

AlarmTable oracle_alarms(const std::vector<const sim::DimmTrace*>& traces) {
  const std::vector<PatternRule> rules = candidate_rules();
  AlarmTable table;
  for (const sim::DimmTrace* trace : traces) {
    std::vector<std::optional<SimTime>>& row = table.emplace_back();
    for (const PatternRule& rule : rules) {
      row.push_back(oracle_first_alarm(*trace, rule));
    }
  }
  return table;
}

/// Oracle fit from the alarm table: DIMM-level F1 per manufacturer with the
/// alarm-lead semantics and first-best tie-break of RiskyCePattern::fit.
std::map<dram::Manufacturer, PatternRule> oracle_fit(
    const std::vector<const sim::DimmTrace*>& traces, const AlarmTable& table,
    const features::PredictionWindows& windows) {
  std::map<dram::Manufacturer, std::vector<std::size_t>> groups;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    groups[traces[t]->config.manufacturer].push_back(t);
  }
  const std::vector<PatternRule> candidates = candidate_rules();
  std::map<dram::Manufacturer, PatternRule> rules;
  for (const auto& [manufacturer, members] : groups) {
    double best_f1 = -1.0;
    PatternRule best;
    for (std::size_t r = 0; r < candidates.size(); ++r) {
      std::size_t tp = 0, fp = 0, fn = 0;
      for (const std::size_t t : members) {
        const sim::DimmTrace& trace = *traces[t];
        const std::optional<SimTime> alarm = table[t][r];
        if (trace.predictable_ue()) {
          const SimTime ue = trace.ue->time;
          const bool timely = alarm && ue - *alarm >= windows.lead &&
                              ue - *alarm <= windows.lead + windows.prediction;
          if (timely) ++tp;
          else ++fn;
          if (alarm && !timely) ++fp;
        } else if (alarm) {
          ++fp;
        }
      }
      const double precision =
          tp + fp == 0 ? 0.0
                       : static_cast<double>(tp) / static_cast<double>(tp + fp);
      const double recall =
          tp + fn == 0 ? 0.0
                       : static_cast<double>(tp) / static_cast<double>(tp + fn);
      const double f1 = precision + recall == 0.0
                            ? 0.0
                            : 2.0 * precision * recall / (precision + recall);
      if (f1 > best_f1) {
        best_f1 = f1;
        best = candidates[r];
      }
    }
    rules[manufacturer] = best;
  }
  return rules;
}

sim::DimmTrace make_trace(dram::Manufacturer manufacturer) {
  sim::DimmTrace trace;
  trace.config.manufacturer = manufacturer;
  return trace;
}

void add_ce(sim::DimmTrace& trace, SimTime t, std::uint8_t dq,
            std::uint8_t beat) {
  dram::CeEvent ce;
  ce.time = t;
  ce.pattern.add({dq, beat});
  trace.ces.push_back(ce);
}

void add_empty_ce(sim::DimmTrace& trace, SimTime t) {
  dram::CeEvent ce;
  ce.time = t;
  trace.ces.push_back(ce);
}

void add_ue(sim::DimmTrace& trace, SimTime t) {
  dram::UeEvent ue;
  ue.time = t;
  ue.had_prior_ce = !trace.ces.empty();
  trace.ue = ue;
}

TEST(PatternRule, MatchesAccumulatedShape) {
  const PatternRule rule{2, 2, 4, 1};
  const dram::ErrorPattern risky({{0, 0}, {1, 4}});
  EXPECT_TRUE(map_matches(rule, risky));
  EXPECT_FALSE(map_matches(rule, dram::ErrorPattern({{0, 0}, {1, 1}})));
  EXPECT_FALSE(map_matches(rule, dram::ErrorPattern({{0, 0}, {0, 4}})));
  EXPECT_FALSE(map_matches({3, 2, 4, 1}, risky));
}

TEST(RiskyCePattern, FiresWhenDeviceMapTurnsRisky) {
  // Train: one failing DIMM that accumulates the wide 2-DQ shape before its
  // UE, one healthy DIMM with a narrow shape.
  sim::DimmTrace failing = make_trace(dram::Manufacturer::kA);
  add_ce(failing, days(1), 0, 0);
  add_ce(failing, days(2), 1, 5);  // device 0, span 5
  add_ue(failing, days(10));

  sim::DimmTrace healthy = make_trace(dram::Manufacturer::kA);
  add_ce(healthy, days(1), 8, 2);
  add_ce(healthy, days(2), 8, 3);  // single lane

  RiskyCePattern model;
  model.fit({&failing, &healthy});

  const auto alarm = model.first_alarm(failing);
  ASSERT_TRUE(alarm.has_value());
  EXPECT_EQ(*alarm, days(2));  // the CE that completed the risky shape
  EXPECT_FALSE(model.first_alarm(healthy).has_value());
}

TEST(RiskyCePattern, RulesAreSeparatePerManufacturer) {
  // Manufacturer A fails via the wide shape; manufacturer B's wide shapes
  // are harmless (its failures are elsewhere). The mined rules must differ
  // in effect.
  std::vector<sim::DimmTrace> traces;
  for (int i = 0; i < 6; ++i) {
    sim::DimmTrace t = make_trace(dram::Manufacturer::kA);
    add_ce(t, days(1), 0, 0);
    add_ce(t, days(2), 1, 5);
    if (i < 4) add_ue(t, days(5));  // mostly failing
    traces.push_back(std::move(t));
  }
  for (int i = 0; i < 6; ++i) {
    sim::DimmTrace t = make_trace(dram::Manufacturer::kB);
    add_ce(t, days(1), 4, 0);
    add_ce(t, days(2), 5, 5);  // same shape, never fails
    traces.push_back(std::move(t));
  }
  std::vector<const sim::DimmTrace*> pointers;
  for (const auto& t : traces) pointers.push_back(&t);

  RiskyCePattern model;
  model.fit(pointers);
  ASSERT_TRUE(model.rules().count(dram::Manufacturer::kA));
  ASSERT_TRUE(model.rules().count(dram::Manufacturer::kB));
  // A's rule should fire on A's risky DIMMs.
  EXPECT_TRUE(model.first_alarm(traces[0]).has_value());
}

TEST(RiskyCePattern, UnknownManufacturerNeverFires) {
  sim::DimmTrace a = make_trace(dram::Manufacturer::kA);
  add_ce(a, days(1), 0, 0);
  add_ue(a, days(5));
  RiskyCePattern model;
  model.fit({&a});

  sim::DimmTrace d = make_trace(dram::Manufacturer::kD);
  add_ce(d, days(1), 0, 0);
  add_ce(d, days(2), 1, 5);
  EXPECT_FALSE(model.first_alarm(d).has_value());
}

TEST(RiskyCePattern, PerDeviceAccumulation) {
  // Bits on two different devices must not combine into one risky map.
  sim::DimmTrace cross = make_trace(dram::Manufacturer::kA);
  add_ce(cross, days(1), 0, 0);   // device 0
  add_ce(cross, days(2), 5, 5);   // device 1

  sim::DimmTrace same = make_trace(dram::Manufacturer::kA);
  add_ce(same, days(1), 0, 0);
  add_ce(same, days(2), 1, 5);
  add_ue(same, days(6));

  RiskyCePattern model;
  model.fit({&cross, &same});
  EXPECT_TRUE(model.first_alarm(same).has_value());
  EXPECT_FALSE(model.first_alarm(cross).has_value());
}

/// Checks one rule on a hand-built trace against the expected alarm and the
/// per-CE oracle.
void expect_alarm(const PatternRule& rule, const sim::DimmTrace& trace,
                  std::optional<SimTime> expected) {
  EXPECT_EQ(first_alarm(rule, trace), expected);
  EXPECT_EQ(oracle_first_alarm(trace, rule), expected);
}

TEST(RiskyCePattern, MinCesAboveTraceCeCountNeverFires) {
  sim::DimmTrace trace = make_trace(dram::Manufacturer::kA);
  add_ce(trace, days(1), 0, 0);
  add_ce(trace, days(2), 1, 5);
  expect_alarm({2, 2, 4, 2}, trace, days(2));
  expect_alarm({2, 2, 4, 3}, trace, std::nullopt);
  expect_alarm({1, 1, 0, 32}, trace, std::nullopt);
}

TEST(RiskyCePattern, EmptyPatternCeCountsButTouchesNoDevice) {
  sim::DimmTrace trace = make_trace(dram::Manufacturer::kA);
  add_empty_ce(trace, days(1));
  add_ce(trace, days(2), 0, 0);
  // The empty CE alone never fires, even under the loosest rule ...
  expect_alarm({1, 1, 0, 1}, trace, days(2));
  // ... but it counts toward the lifetime CE gate.
  expect_alarm({1, 1, 0, 2}, trace, days(2));
  expect_alarm({1, 1, 0, 3}, trace, std::nullopt);

  sim::DimmTrace only_empty = make_trace(dram::Manufacturer::kA);
  add_empty_ce(only_empty, days(1));
  add_empty_ce(only_empty, days(2));
  expect_alarm({1, 1, 0, 1}, only_empty, std::nullopt);
}

TEST(RiskyCePattern, AlarmWaitsForCeGateWhenMapGatesHoldFirst) {
  sim::DimmTrace trace = make_trace(dram::Manufacturer::kA);
  add_ce(trace, days(1), 0, 0);
  add_ce(trace, days(2), 1, 5);    // device 0 turns risky here
  add_ce(trace, days(3), 40, 1);   // other devices: no growth on device 0
  add_ce(trace, days(4), 41, 2);
  add_empty_ce(trace, days(5));
  expect_alarm({2, 2, 4, 1}, trace, days(2));
  expect_alarm({2, 2, 4, 4}, trace, days(4));
  expect_alarm({2, 2, 4, 5}, trace, days(5));
  expect_alarm({2, 2, 4, 6}, trace, std::nullopt);
}

TEST(RiskyCePattern, GatesMetByLastCe) {
  sim::DimmTrace trace = make_trace(dram::Manufacturer::kA);
  add_ce(trace, days(1), 0, 0);
  add_ce(trace, days(2), 8, 3);  // device 2
  add_ce(trace, days(3), 1, 5);  // completes device 0's risky shape
  expect_alarm({2, 2, 4, 1}, trace, days(3));
  expect_alarm({2, 2, 4, 3}, trace, days(3));
  expect_alarm({2, 2, 4, 4}, trace, std::nullopt);
  expect_alarm({3, 2, 4, 1}, trace, std::nullopt);
}

/// Fits on `fleet` with both the growth-point replay and the oracle. Asserts
/// the same alarm for every candidate rule on every DIMM, the same mined rule
/// per manufacturer and the same first alarm for every DIMM.
void expect_matches_oracle(const sim::FleetTrace& fleet) {
  std::vector<const sim::DimmTrace*> traces;
  for (const sim::DimmTrace& dimm : fleet.dimms) traces.push_back(&dimm);
  const AlarmTable table = oracle_alarms(traces);
  const std::vector<PatternRule> candidates = candidate_rules();
  for (std::size_t t = 0; t < traces.size(); ++t) {
    for (std::size_t r = 0; r < candidates.size(); ++r) {
      ASSERT_EQ(first_alarm(candidates[r], *traces[t]), table[t][r])
          << "DIMM " << traces[t]->id << ", rule " << r;
    }
  }

  const features::PredictionWindows windows;
  RiskyCePattern model(windows);
  model.fit(traces);
  const std::map<dram::Manufacturer, PatternRule> expected =
      oracle_fit(traces, table, windows);
  EXPECT_EQ(model.rules(), expected);
  std::size_t alarms = 0;
  for (const sim::DimmTrace& dimm : fleet.dimms) {
    const auto rule = expected.find(dimm.config.manufacturer);
    ASSERT_NE(rule, expected.end());
    const std::optional<SimTime> alarm = model.first_alarm(dimm);
    EXPECT_EQ(alarm, oracle_first_alarm(dimm, rule->second))
        << "DIMM " << dimm.id;
    if (alarm) ++alarms;
  }
  EXPECT_GT(alarms, 0u);
}

TEST(RiskyCePattern, MatchesPerCeReplayOracle) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(seed);
    expect_matches_oracle(
        sim::simulate_fleet(sim::purley_scenario(seed).scaled(0.02)));
  }
  // x8 geometry: the same lanes group into 9 eight-lane devices.
  sim::FleetTrace x8 =
      sim::simulate_fleet(sim::purley_scenario(14).scaled(0.02));
  for (sim::DimmTrace& dimm : x8.dimms) {
    dimm.config.width = dram::DeviceWidth::kX8;
  }
  SCOPED_TRACE("x8");
  expect_matches_oracle(x8);
}

}  // namespace
}  // namespace memfp::baseline
