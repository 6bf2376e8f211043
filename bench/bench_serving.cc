// Online serving throughput bench (ROADMAP item 3): drives the sharded,
// batched ServingEngine over in-memory and store-backed fleets and over
// synthetic CE-storm scenarios, reporting sustained events/sec, scored
// rows/sec and p50/p99 per-shard tick latency.
//
// Three claims, as numbers:
//   1. The batched engine beats the frozen pre-engine serial serving loop
//      (single-row predict, deque-buffered extraction; measured at commit
//      d688675 on this VM: 3.33 s for the purley x2.0 / 56-day workload)
//      by >= 3x, and the in-run serial oracle (run_reference, which already
//      shares the optimized extraction) by the batching margin alone.
//   2. A >= 10^5-DIMM fleet serves at a sustained events/sec with bounded
//      tick latency, in memory or streamed from trace-store shards.
//   3. Under CE storms, admission control bounds p99 tick latency while the
//      unshedded run's p99 grows with storm intensity — load shedding as a
//      number, not a claim.
//
// Usage: bench_serving [BENCH_serving.json]
//   With a path, writes the machine-readable trajectory that
//   tools/run_benches.sh records; without, prints the tables only.
//   MEMFP_BENCH_SCALE scales fleet sizes (e.g. 0.02 for a smoke run).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "core/pipeline.h"
#include "mlops/serving.h"
#include "sim/fleet.h"
#include "sim/trace_store.h"

namespace {

using namespace memfp;

// Frozen serial-serving baseline: the pre-engine OnlinePredictionService
// loop (one single-row predict per due tick, deque-buffered extraction)
// on the workload below, measured at commit d688675 on this VM. Valid at
// MEMFP_BENCH_SCALE=1 only.
constexpr double kFrozenSerialSeconds = 3.33;
constexpr char kFrozenWorkload[] =
    "purley x2.0 (10936 DIMMs), 56-day horizon, 2-day cadence";

constexpr SimTime kServeStart = days(6);
constexpr SimTime kServeEnd = days(56);
constexpr SimDuration kCadence = days(2);

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::vector<double> latencies_ms(const mlops::ServingStats& stats) {
  std::vector<double> ms;
  ms.reserve(stats.tick_latencies_ns.size());
  for (const std::uint64_t ns : stats.tick_latencies_ns) {
    ms.push_back(static_cast<double>(ns) / 1e6);
  }
  return ms;
}

struct Point {
  std::string name;
  std::uint64_t dimms = 0;
  std::uint64_t events = 0;
  std::uint64_t scored = 0;
  double seconds = 0.0;
  double ref_seconds = 0.0;  // run_reference on the same workload, 0 = n/a
  bench::LatencySummary tick_ms;
  std::size_t peak_rss = 0;
};

struct StormPoint {
  int ces_per_tick = 0;
  bool admission = false;
  double seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t scored = 0;
  std::uint64_t shed = 0;
  std::uint64_t degraded = 0;
  bench::LatencySummary tick_ms;
};

/// A hand-built storm fleet: every 8th DIMM logs `ces_per_tick` CEs per
/// cadence tick (a BMC-suppression-scale burst), the rest trickle one CE a
/// tick. Distinct cells per burst keep the observation window fat, which is
/// what makes un-shedded storm scoring expensive.
sim::FleetTrace storm_fleet(std::size_t dimms, int ces_per_tick,
                            SimTime start, SimTime end, SimDuration cadence) {
  sim::FleetTrace fleet;
  fleet.platform = dram::Platform::kIntelPurley;
  fleet.horizon = end + days(1);
  for (dram::DimmId id = 0; id < dimms; ++id) {
    sim::DimmTrace dimm;
    dimm.id = id;
    const int per_tick = id % 8 == 0 ? ces_per_tick : 1;
    for (SimTime t = start; t <= end; t += cadence) {
      for (int k = 0; k < per_tick; ++k) {
        dram::CeEvent ce;
        ce.time = t - cadence + 1 + k % (cadence - 1);
        ce.coord.bank = k % 16;
        ce.coord.row = (k * 37) % 4096;
        ce.coord.column = (k * 11) % 128;
        ce.pattern.add({static_cast<std::uint8_t>(k % 8), 0});
        dimm.ces.push_back(ce);
      }
    }
    fleet.dimms.push_back(std::move(dimm));
  }
  return fleet;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : nullptr;
  const double scale = bench::bench_scale();

  // A production-shaped model for the scoring stage. The training fleet
  // shrinks with the smoke scale but never below a quarter, so the model
  // keeps a realistic tree count and depth.
  const double train_scale = 0.12 * std::clamp(scale, 0.25, 1.0);
  const sim::FleetTrace train_fleet =
      sim::simulate_fleet(sim::purley_scenario(/*seed=*/7).scaled(train_scale));
  core::PipelineConfig pipeline_config;
  core::Experiment experiment(train_fleet, pipeline_config);
  auto [eval, model] = experiment.run_with_model(core::Algorithm::kLightGbm);

  // Throughput points run alarm-free (threshold above any score) so every
  // DIMM is served across the whole span — steady-state serving load, not
  // the tail-off after alarms retire streams. That matches the frozen
  // baseline loop, which was measured without an alarm break.
  constexpr double kNoAlarms = 2.0;
  const mlops::FeatureStore store;
  std::vector<Point> points;

  const auto serve_point =
      [&](const std::string& name, const sim::FleetTrace& fleet,
          const std::vector<std::string>& shard_files, bool with_reference) {
        mlops::ServingConfig config;
        config.shards = std::max<std::size_t>(
            1, (fleet.dimms.size() + 2047) / 2048);
        config.now_ns = mono_ns;
        // Best of kReps timed sweeps, fresh engine state each time: this
        // single-tenant VM sees ±20% wall-clock noise from co-tenants, and
        // the minimum is the standard noise-robust estimator for a
        // deterministic workload. The first rep doubles as the warmup
        // (first-touch page faults on the freshly simulated fleet).
        // The frozen-baseline point gates the headline speedup, so it gets
        // two extra reps; the 10^5-DIMM points are long enough to average
        // the noise out on their own.
        const int reps = with_reference ? 5 : 3;
        Point point;
        point.name = name;
        point.seconds = 1e30;
        for (int rep = 0; rep < reps; ++rep) {
          mlops::AlarmSystem alarms;
          mlops::Monitoring monitoring;
          mlops::ServingEngine engine(*model, kNoAlarms, store, alarms,
                                      monitoring, config);
          const auto start = std::chrono::steady_clock::now();
          const mlops::ServingStats stats =
              shard_files.empty()
                  ? engine.run_over(fleet, kServeStart, kServeEnd, kCadence)
                  : engine.run_over_store(shard_files, kServeStart, kServeEnd,
                                          kCadence);
          const double seconds = seconds_since(start);
          if (seconds >= point.seconds) continue;
          point.seconds = seconds;
          point.dimms = stats.dimms;
          point.events = stats.ingested_ces + stats.ingested_events;
          point.scored = stats.scored;
          point.tick_ms = bench::summarize_latencies(latencies_ms(stats));
        }
        point.peak_rss = bench::peak_rss_bytes();
        if (with_reference) {
          point.ref_seconds = 1e30;
          for (int rep = 0; rep < reps; ++rep) {
            mlops::AlarmSystem ref_alarms;
            mlops::Monitoring ref_monitoring;
            mlops::ServingEngine reference(*model, kNoAlarms, store,
                                           ref_alarms, ref_monitoring, {});
            const auto ref_start = std::chrono::steady_clock::now();
            reference.run_reference(fleet, kServeStart, kServeEnd, kCadence);
            point.ref_seconds =
                std::min(point.ref_seconds, seconds_since(ref_start));
          }
        }
        points.push_back(point);
      };

  // --- Point 1: the frozen-baseline workload, engine vs in-run serial. ---
  {
    sim::ScenarioParams params = sim::purley_scenario(/*seed=*/1234)
                                     .scaled(2.0 * scale);
    params.horizon = days(56);
    const sim::FleetTrace fleet = sim::simulate_fleet(params);
    serve_point("frozen-workload", fleet, {}, /*with_reference=*/true);
  }

  // --- Point 2: a 10^5-planned-DIMM fleet, in memory and store-backed. ---
  const std::string store_dir =
      (std::filesystem::temp_directory_path() / "memfp_serving_bench")
          .string();
  {
    const sim::ScenarioParams base = sim::purley_scenario(/*seed=*/1234);
    const double base_total =
        static_cast<double>(sim::plan_fleet(base).total());
    sim::ScenarioParams params = base.scaled(1e5 * scale / base_total);
    params.horizon = days(56);
    const sim::FleetTrace fleet = sim::simulate_fleet(params);
    serve_point("fleet-1e5", fleet, {}, /*with_reference=*/false);

    // Same fleet from trace-store shards: the serving path of a fleet that
    // never fit in memory (PR 6 store). One serving shard per file.
    std::filesystem::remove_all(store_dir);
    std::filesystem::create_directories(store_dir);
    constexpr std::size_t kDimmsPerShard = 16384;
    std::vector<std::string> files;
    for (std::size_t begin = 0; begin < fleet.dimms.size();
         begin += kDimmsPerShard) {
      files.push_back(sim::shard_path(store_dir, files.size()));
      sim::ShardWriter writer(files.back(), fleet.platform, fleet.horizon);
      const std::size_t end =
          std::min(begin + kDimmsPerShard, fleet.dimms.size());
      writer.append(std::span<const sim::DimmTrace>(fleet.dimms)
                        .subspan(begin, end - begin));
      writer.finish();
    }
    serve_point("store-1e5", fleet, files, /*with_reference=*/false);
    std::filesystem::remove_all(store_dir);
  }

  // --- Storm sweep: p99 with and without admission control. ---
  // Sub-day cadence keeps ~20 ticks inside the 5-day observation window, so
  // a storm DIMM's window holds ces_per_tick * 20 records — the regime
  // where scoring a storm DIMM every tick is what hurts.
  const SimTime storm_start = days(6);
  const SimTime storm_end = days(16);
  const SimDuration storm_cadence = hours(6);
  const auto storm_dimms = static_cast<std::size_t>(
      std::max(64.0, 512.0 * scale));
  std::vector<StormPoint> storms;
  for (const int ces_per_tick : {50, 400}) {
    const sim::FleetTrace fleet = storm_fleet(
        storm_dimms, ces_per_tick, storm_start, storm_end, storm_cadence);
    for (const bool admission : {false, true}) {
      mlops::ServingConfig config;
      config.shards = std::max<std::size_t>(1, storm_dimms / 128);
      config.now_ns = mono_ns;
      config.admission.enabled = admission;
      config.admission.tokens_per_tick = 16.0;
      config.admission.bucket_capacity = 128.0;
      config.admission.degraded_stride = 4;
      // Best-of-3 for the same reason as the throughput points: the
      // admission-on/off p99 comparison must not hinge on co-tenant noise.
      StormPoint point;
      point.ces_per_tick = ces_per_tick;
      point.admission = admission;
      point.seconds = 1e30;
      for (int rep = 0; rep < 3; ++rep) {
        mlops::AlarmSystem alarms;
        mlops::Monitoring monitoring;
        mlops::ServingEngine engine(*model, kNoAlarms, store, alarms,
                                    monitoring, config);
        const auto start = std::chrono::steady_clock::now();
        const mlops::ServingStats stats =
            engine.run_over(fleet, storm_start, storm_end, storm_cadence);
        const double seconds = seconds_since(start);
        if (seconds >= point.seconds) continue;
        point.seconds = seconds;
        point.events = stats.ingested_ces + stats.ingested_events;
        point.scored = stats.scored;
        point.shed = stats.shed_scores;
        point.degraded = stats.degraded_dimms;
        point.tick_ms = bench::summarize_latencies(latencies_ms(stats));
      }
      storms.push_back(point);
    }
  }

  // --- Report. ---
  TextTable table("Online serving throughput (engine: sharded + batched)");
  table.set_header({"workload", "DIMMs", "events", "scored", "sec",
                    "events/s", "scored/s", "p50 ms", "p99 ms", "serial sec",
                    "speedup"});
  for (const Point& point : points) {
    table.add_row(
        {point.name, std::to_string(point.dimms),
         std::to_string(point.events), std::to_string(point.scored),
         bench::fmt(point.seconds),
         bench::fmt(static_cast<double>(point.events) / point.seconds, 0),
         bench::fmt(static_cast<double>(point.scored) / point.seconds, 0),
         bench::fmt(point.tick_ms.p50, 3), bench::fmt(point.tick_ms.p99, 3),
         point.ref_seconds > 0.0 ? bench::fmt(point.ref_seconds) : "-",
         point.ref_seconds > 0.0
             ? bench::fmt(point.ref_seconds / point.seconds) + "x"
             : "-"});
  }
  std::printf("%s", table.render().c_str());
  if (scale == 1.0 && !points.empty()) {
    std::printf(
        "frozen serial baseline (%s): %s s -> engine %s s, %sx\n",
        kFrozenWorkload, bench::fmt(kFrozenSerialSeconds).c_str(),
        bench::fmt(points[0].seconds).c_str(),
        bench::fmt(kFrozenSerialSeconds / points[0].seconds).c_str());
  }

  TextTable storm_table("CE-storm admission control");
  storm_table.set_header({"CEs/tick", "admission", "sec", "events/s",
                          "scored", "shed", "degraded", "p50 ms", "p99 ms"});
  for (const StormPoint& point : storms) {
    storm_table.add_row(
        {std::to_string(point.ces_per_tick), point.admission ? "on" : "off",
         bench::fmt(point.seconds),
         bench::fmt(static_cast<double>(point.events) / point.seconds, 0),
         std::to_string(point.scored), std::to_string(point.shed),
         std::to_string(point.degraded), bench::fmt(point.tick_ms.p50, 3),
         bench::fmt(point.tick_ms.p99, 3)});
  }
  std::printf("%s", storm_table.render().c_str());

  if (out_path != nullptr) {
    std::FILE* out = std::fopen(out_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_serving: cannot write %s\n", out_path);
      return 1;
    }
    bench::JsonEmitter json;
    json.begin_object();
    bench::emit_context(json);
    json.begin_object("baseline");
    json.field("commit", "d688675");
    json.field("workload", kFrozenWorkload);
    json.field("serial_seconds", kFrozenSerialSeconds);
    json.field("valid_at_scale", 1.0, 1);
    json.end_object();
    json.begin_array("points");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      json.begin_object();
      json.field("workload", p.name);
      json.field("dimms", static_cast<unsigned long long>(p.dimms));
      json.field("events", static_cast<unsigned long long>(p.events));
      json.field("scored", static_cast<unsigned long long>(p.scored));
      json.field("seconds", p.seconds);
      json.field("events_per_sec",
                 static_cast<double>(p.events) / p.seconds, 0);
      json.field("scored_per_sec",
                 static_cast<double>(p.scored) / p.seconds, 0);
      json.field("tick_p50_ms", p.tick_ms.p50, 3);
      json.field("tick_p99_ms", p.tick_ms.p99, 3);
      json.field("serial_seconds", p.ref_seconds > 0.0 ? p.ref_seconds : 0.0);
      json.field("speedup_vs_serial",
                 p.ref_seconds > 0.0 ? p.ref_seconds / p.seconds : 0.0);
      json.field("speedup_vs_frozen",
                 i == 0 && scale == 1.0 ? kFrozenSerialSeconds / p.seconds
                                        : 0.0);
      json.field("peak_rss_mb",
                 static_cast<double>(p.peak_rss) / (1024.0 * 1024.0), 1);
      json.end_object();
    }
    json.end_array();
    json.begin_array("storm");
    for (const StormPoint& p : storms) {
      json.begin_object();
      json.field("ces_per_tick", p.ces_per_tick);
      json.field("admission", p.admission);
      json.field("seconds", p.seconds);
      json.field("events_per_sec",
                 static_cast<double>(p.events) / p.seconds, 0);
      json.field("scored", static_cast<unsigned long long>(p.scored));
      json.field("shed_scores", static_cast<unsigned long long>(p.shed));
      json.field("degraded_dimms",
                 static_cast<unsigned long long>(p.degraded));
      json.field("tick_p50_ms", p.tick_ms.p50, 3);
      json.field("tick_p99_ms", p.tick_ms.p99, 3);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    std::fputs(json.str().c_str(), out);
    std::fclose(out);
  }
  return 0;
}
