// The four end-to-end workloads. Each one drives the system through its
// public entry points in pass(), and repeats the same work in traced_pass()
// as direct calls into each layer, one span per call site.
#include <array>
#include <bit>
#include <filesystem>
#include <functional>
#include <numeric>
#include <optional>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/campaign.h"
#include "core/fleet_driver.h"
#include "core/pipeline.h"
#include "dram/geometry.h"
#include "harness.h"
#include "mlops/alarm.h"
#include "mlops/feature_store.h"
#include "mlops/monitoring.h"
#include "mlops/serving.h"
#include "sim/dimm_sim.h"
#include "sim/fleet.h"
#include "sim/trace_store.h"

namespace memfp::e2e {
namespace {

// Every input derives from the run's --seed through a per-use salt, so one
// seed fixes the whole workload and different uses never share a stream.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return sim::fnv1a_u64(sim::fnv1a_u64(sim::kFnvOffset, salt), seed);
}

std::uint64_t fold_score(std::uint64_t h, dram::DimmId dimm, SimTime t,
                         double score) {
  h = sim::fnv1a_u64(h, static_cast<std::uint64_t>(dimm));
  h = sim::fnv1a_u64(h, static_cast<std::uint64_t>(t));
  return sim::fnv1a_u64(h, std::bit_cast<std::uint64_t>(score));
}

// Serving runs alarm-free: no score reaches 2.0, so every DIMM is served over
// the whole span — steady serving load, not the tail-off after alarms retire
// streams.
constexpr double kNoAlarms = 2.0;

features::PredictionWindows two_day_cadence() {
  features::PredictionWindows windows;
  windows.cadence = days(2);
  return windows;
}

/// Purley fleet of about `dimms` planned DIMMs over an 8-week horizon.
sim::ScenarioParams purley_fleet(std::uint64_t seed, double dimms) {
  const sim::ScenarioParams base = sim::purley_scenario(seed);
  sim::ScenarioParams params =
      base.scaled(dimms / static_cast<double>(sim::plan_fleet(base).total()));
  params.horizon = days(56);
  return params;
}

core::FleetDriverConfig driver_config(const sim::ScenarioParams& params,
                                      std::size_t dimms_per_shard,
                                      const std::string& dir, bool keep,
                                      int threads) {
  const std::size_t planned = sim::plan_fleet(params).total();
  core::FleetDriverConfig config;
  config.shards = std::max<std::size_t>(
      1, (planned + dimms_per_shard - 1) / dimms_per_shard);
  config.store_dir = dir;
  config.keep_store = keep;
  config.num_threads = threads;
  config.windows = two_day_cadence();
  return config;
}

// Seed of the deployed model's training fleet. The model belongs to the
// system under test, not to a workload's input, so it does not follow
// --seed: early stopping makes a LightGBM model's tree count, and so the
// cost of every score, depend on its training data.
constexpr std::uint64_t kModelSeed = 0x6d656d6670;

/// The deployed, production-shaped LightGBM model, trained on a small
/// resident Purley fleet. The training fleet shrinks with the scale, but
/// never below a quarter, so the model keeps a realistic tree count and
/// depth.
std::unique_ptr<ml::BinaryClassifier> train_model(double scale, int threads,
                                                  Tracer* tracer) {
  const std::uint64_t seed = kModelSeed;
  sim::FleetTrace fleet;
  {
    Span span(tracer, "sim.simulate");
    fleet = sim::simulate_fleet(sim::purley_scenario(seed).scaled(
        0.12 * std::clamp(scale, 0.25, 1.0)));
  }
  core::PipelineConfig config;
  config.seed = seed;
  config.num_threads = threads;
  std::optional<core::Experiment> experiment;
  {
    Span span(tracer, "features.extract");
    experiment.emplace(fleet, config);
  }
  std::unique_ptr<ml::BinaryClassifier> model =
      core::make_model(core::Algorithm::kLightGbm);
  {
    Span span(tracer, "ml.fit_gbdt");
    Rng rng(seed);
    model->fit(experiment->train_set(), rng);
  }
  return model;
}

/// run_fleet_driver's shard loop, written out as layer calls with a span
/// around each: plan + simulate, encode + spill, decode, extract, predict,
/// and the fleet driver's own hash folding and row assembly ("core.driver").
/// It folds the same three hashes, so the traced run can be checked against
/// run_fleet_driver.
core::FleetDriverResult traced_fleet_driver(
    const sim::ScenarioParams& params, const core::FleetDriverConfig& config,
    const ml::BinaryClassifier* model, Tracer& tracer) {
  std::filesystem::create_directories(config.store_dir);
  sim::DimmSimParams sim_params;
  sim_params.horizon = params.horizon;
  const sim::DimmSimulator simulator(params.platform, sim_params);
  const dram::Geometry geometry = dram::Geometry::ddr4_x4();
  const features::FeatureExtractor extractor(config.windows);
  ThreadPool& pool = ThreadPool::global();

  core::FleetDriverResult result;
  sim::FleetPlanner planner(params);
  const std::size_t total = planner.plan().total();
  result.planned_dimms = total;
  const std::size_t shards = std::max<std::size_t>(1, config.shards);
  for (std::size_t s = 0; s < shards; ++s) {
    std::vector<sim::PlannedDimm> jobs;
    std::vector<sim::DimmTrace> traces;
    {
      Span span(&tracer, "sim.simulate");
      jobs = planner.take((s + 1) * total / shards - s * total / shards);
      traces.resize(jobs.size());
      pool.parallel_for(
          jobs.size(),
          [&](std::size_t i) {
            traces[i] = sim::simulate_planned_dimm(jobs[i], params, simulator,
                                                   geometry);
          },
          1);
    }
    if (jobs.empty()) continue;

    const std::string path = sim::shard_path(config.store_dir, s);
    {
      Span span(&tracer, "sim.store.encode");
      sim::ShardWriter writer(path, params.platform, params.horizon);
      for (std::size_t i = 0; i < traces.size(); ++i) {
        if (!sim::enters_observed_dataset(jobs[i].kind, traces[i])) continue;
        result.trace_hash =
            sim::fnv1a_u64(result.trace_hash, writer.append(traces[i]));
      }
      const sim::ShardStats stats = writer.finish();
      result.observed_dimms += stats.dimms;
      result.ce_records += stats.ce_records;
      result.mem_events += stats.mem_events;
      result.ue_records += stats.ue_records;
      result.encoded_bytes += stats.file_bytes;
      traces.clear();
      traces.shrink_to_fit();
    }

    {
      Span span(&tracer, "sim.store.decode");
      const sim::TraceReader reader(path);
      traces.resize(reader.dimm_count());
      pool.parallel_for(
          reader.dimm_count(),
          [&](std::size_t i) { traces[i] = reader.read_dimm(i); }, 1);
    }
    std::vector<std::vector<features::Sample>> samples(traces.size());
    {
      Span span(&tracer, "features.extract");
      pool.parallel_for(
          traces.size(),
          [&](std::size_t i) {
            samples[i] = extractor.extract(traces[i], params.horizon);
          },
          1);
    }
    ml::Matrix x;
    {
      Span span(&tracer, "core.driver");
      traces.clear();
      for (const std::vector<features::Sample>& dimm_samples : samples) {
        for (const features::Sample& sample : dimm_samples) {
          result.feature_hash = core::fold_sample_hash(result.feature_hash,
                                                       sample);
          x.push_row(sample.features);
        }
      }
      result.samples += x.rows();
      if (config.keep_store) {
        result.shard_files.push_back(path);
      } else {
        std::filesystem::remove(path);
      }
    }
    if (model != nullptr && x.rows() > 0) {
      Span span(&tracer, "ml.predict");
      for (const double score : model->predict_batch(x)) {
        result.score_hash = sim::fnv1a_u64(result.score_hash,
                                           std::bit_cast<std::uint64_t>(score));
      }
    }
  }
  return result;
}

std::vector<std::uint64_t> driver_hashes(const core::FleetDriverResult& r) {
  return {r.trace_hash, r.feature_hash, r.score_hash};
}

void add_counter(std::vector<Metric>& out, const char* name, double value,
                 const char* unit) {
  out.push_back({name, value, unit});
}

/// num / den, with an empty denominator counted as one.
double ratio(std::uint64_t num, std::uint64_t den) {
  return static_cast<double>(num) /
         static_cast<double>(std::max<std::uint64_t>(1, den));
}

/// Per-DIMM feature rows of one serving replay: `times[d]` and the rows of
/// DIMM d in `rows[d]`, in tick order.
struct StreamRows {
  std::vector<dram::DimmId> ids;
  std::vector<std::vector<SimTime>> times;
  std::vector<ml::Matrix> rows;
};

/// The serving loop without the engine: one stream per DIMM with CEs,
/// observe_* up to each tick, features_at at the tick — the alarm-free,
/// admission-off semantics of ServingEngine::run_reference.
StreamRows replay_streams(const mlops::FeatureStore& store,
                          const std::vector<sim::DimmTrace>& dimms,
                          SimTime start, SimTime end, SimDuration cadence) {
  StreamRows out;
  std::vector<const sim::DimmTrace*> live;
  for (const sim::DimmTrace& dimm : dimms) {
    if (dimm.ces.empty()) continue;
    out.ids.push_back(dimm.id);
    live.push_back(&dimm);
  }
  out.times.resize(live.size());
  out.rows.resize(live.size());
  ThreadPool::global().parallel_for(
      live.size(),
      [&](std::size_t d) {
        const sim::DimmTrace& dimm = *live[d];
        features::OnlineExtractorState stream = store.open_stream(dimm);
        std::vector<float> features;
        std::size_t next_ce = 0;
        std::size_t next_event = 0;
        for (SimTime t = start; t <= end; t += cadence) {
          if (dimm.ue && t >= dimm.ue->time) break;
          while (next_ce < dimm.ces.size() && dimm.ces[next_ce].time <= t) {
            stream.observe_ce(dimm.ces[next_ce++]);
          }
          while (next_event < dimm.events.size() &&
                 dimm.events[next_event].time <= t) {
            stream.observe_event(dimm.events[next_event++]);
          }
          stream.features_at(t, features);
          if (features.empty()) continue;
          out.times[d].push_back(t);
          out.rows[d].push_row(features);
        }
      },
      1);
  return out;
}

/// Scores the replayed rows in one cross-DIMM batch and folds them in DIMM
/// order, as ServingStats::score_hash does. Returns the row count.
std::uint64_t score_rows(const ml::BinaryClassifier& model,
                         const StreamRows& rows, std::uint64_t& hash) {
  ml::Matrix batch;
  for (const ml::Matrix& dimm_rows : rows.rows) {
    for (std::size_t r = 0; r < dimm_rows.rows(); ++r) {
      batch.push_row(dimm_rows.row(r));
    }
  }
  if (batch.rows() == 0) return 0;
  const std::vector<double> scores = model.predict_batch(batch);
  std::size_t next = 0;
  for (std::size_t d = 0; d < rows.ids.size(); ++d) {
    for (const SimTime t : rows.times[d]) {
      hash = fold_score(hash, rows.ids[d], t, scores[next++]);
    }
  }
  return batch.rows();
}

PassOutput serving_output(const mlops::ServingStats& stats) {
  PassOutput out;
  out.ops = stats.scored + stats.shed_scores;
  out.events = stats.ingested_ces + stats.ingested_events;
  // The traced replays read the counts back: [2] scored, [3] shed.
  out.hashes = {stats.score_hash, stats.alarm_hash, stats.scored,
                stats.shed_scores};
  out.tick_ms.reserve(stats.tick_latencies_ns.size());
  for (const std::uint64_t ns : stats.tick_latencies_ns) {
    out.tick_ms.push_back(static_cast<double>(ns) / 1e6);
  }
  add_counter(out.outputs, "shed_share", ratio(stats.shed_scores, out.ops),
              "share");
  const auto count = [&](const char* name, std::uint64_t value) {
    add_counter(out.counters, name, static_cast<double>(value), "count");
  };
  count("mlops.serving.ticks", stats.ticks);
  count("mlops.serving.batches", stats.batches);
  add_counter(out.counters, "mlops.serving.rows_per_batch",
              ratio(stats.scored, stats.batches), "rows/batch");
  count("mlops.serving.peak_queue_depth", stats.peak_queue_depth);
  count("mlops.serving.queue_stalls", stats.queue_stalls);
  count("mlops.serving.shed_scores", stats.shed_scores);
  count("mlops.serving.degraded_dimms", stats.degraded_dimms);
  count("mlops.serving.overload_ticks", stats.overload_ticks);
  return out;
}

bool same_stats(const mlops::ServingStats& a, const mlops::ServingStats& b) {
  return a.score_hash == b.score_hash && a.alarm_hash == b.alarm_hash &&
         a.scored == b.scored && a.alarms == b.alarms &&
         a.ingested_ces == b.ingested_ces &&
         a.ingested_events == b.ingested_events && a.dimms == b.dimms;
}

// ---------------------------------------------------------------------------
// fleet-batch: the write side — simulate, encode/spill, decode, extract and
// batch predict over a 5×10⁴-DIMM fleet. No training, no serving.
// ---------------------------------------------------------------------------

class FleetBatch final : public Workload {
 public:
  explicit FleetBatch(const WorkloadOptions& options) : options_(options) {}

  int warmup_passes() const override { return 1; }

  void setup(Tracer* tracer) override {
    model_.reset();
    model_ = train_model(options_.scale, options_.threads, tracer);
    params_ = purley_fleet(options_.seed, 5e4 * options_.scale);
    config_ = driver_config(params_, 4096, options_.work_dir + "/fleet-batch",
                            /*keep=*/false, options_.threads);
  }

  PassOutput pass(std::size_t) override {
    const core::FleetDriverResult r =
        core::run_fleet_driver(params_, config_, model_.get());
    PassOutput out;
    out.ops = r.planned_dimms;
    out.events = r.events();
    out.hashes = driver_hashes(r);
    add_counter(out.outputs, "store_bytes_per_event",
                ratio(r.encoded_bytes, r.events()), "B/event");
    return out;
  }

  bool traced_pass(Tracer& tracer, const PassOutput& first,
                   std::vector<Metric>& counters,
                   std::string& detail) override {
    const core::FleetDriverResult r =
        traced_fleet_driver(params_, config_, model_.get(), tracer);
    fleet_counters(r, counters);
    add_counter(counters, "ml.rows_scored", static_cast<double>(r.samples),
                "count");
    if (driver_hashes(r) != first.hashes) {
      detail += "traced fleet pass folds different hashes than "
                "run_fleet_driver\n";
      return false;
    }
    return true;
  }

  bool verify(std::string& detail) override {
    const core::FleetDriverResult sharded =
        core::run_fleet_driver(params_, config_, model_.get());
    const core::FleetDriverResult reference = core::reference_fleet_result(
        params_, config_.windows, model_.get());
    if (driver_hashes(sharded) != driver_hashes(reference) ||
        sharded.samples != reference.samples) {
      detail += "run_fleet_driver differs from reference_fleet_result\n";
      return false;
    }
    return true;
  }

  static void fleet_counters(const core::FleetDriverResult& r,
                             std::vector<Metric>& counters) {
    add_counter(counters, "sim.events", static_cast<double>(r.events()),
                "count");
    add_counter(counters, "sim.store.bytes_per_event",
                ratio(r.encoded_bytes, r.events()), "B/event");
    add_counter(counters, "features.samples", static_cast<double>(r.samples),
                "count");
  }

 private:
  WorkloadOptions options_;
  std::unique_ptr<ml::BinaryClassifier> model_;
  sim::ScenarioParams params_;
  core::FleetDriverConfig config_;
};

// ---------------------------------------------------------------------------
// serve-store: the read side of the same store — decode, streaming
// extraction and cross-DIMM predict_batch over shards written in set-up.
// ---------------------------------------------------------------------------

constexpr SimTime kServeStart = days(6);
constexpr SimTime kServeEnd = days(56);
constexpr SimDuration kServeCadence = days(2);

class ServeStore final : public Workload {
 public:
  explicit ServeStore(const WorkloadOptions& options) : options_(options) {}

  int warmup_passes() const override { return 1; }

  void setup(Tracer* tracer) override {
    model_.reset();
    model_ = train_model(options_.scale, options_.threads, tracer);
    const sim::ScenarioParams params =
        purley_fleet(derive(options_.seed, 2), 3e4 * options_.scale);
    const std::string dir = options_.work_dir + "/serve-store";
    std::filesystem::remove_all(dir);
    // The store is written by the fleet driver with no model, so no
    // resident fleet exists when serving starts. Serving decodes one shard
    // per thread at a time, so the shard size sets the read side's peak RSS.
    const core::FleetDriverConfig config =
        driver_config(params, 2048, dir, /*keep=*/true, options_.threads);
    setup_counters_.clear();
    if (tracer != nullptr) {
      const core::FleetDriverResult r =
          traced_fleet_driver(params, config, nullptr, *tracer);
      FleetBatch::fleet_counters(r, setup_counters_);
      files_ = r.shard_files;
    } else {
      files_ = core::run_fleet_driver(params, config, nullptr).shard_files;
    }
  }

  PassOutput pass(std::size_t) override {
    return serving_output(serve(kNoAlarms));
  }

  bool traced_pass(Tracer& tracer, const PassOutput& first,
                   std::vector<Metric>& counters,
                   std::string& detail) override {
    counters.insert(counters.end(), setup_counters_.begin(),
                    setup_counters_.end());
    std::uint64_t hash = sim::kFnvOffset;
    std::uint64_t rows = 0;
    double stream_rows = 0.0;
    for (const std::string& file : files_) {
      std::vector<sim::DimmTrace> dimms;
      {
        Span span(&tracer, "sim.store.decode");
        const sim::TraceReader reader(file);
        dimms.resize(reader.dimm_count());
        ThreadPool::global().parallel_for(
            reader.dimm_count(),
            [&](std::size_t i) { dimms[i] = reader.read_dimm(i); }, 1);
      }
      StreamRows replay;
      {
        Span span(&tracer, "features.stream");
        replay = replay_streams(store_, dimms, kServeStart, kServeEnd,
                                kServeCadence);
        for (const ml::Matrix& m : replay.rows) stream_rows += m.rows();
      }
      Span span(&tracer, "ml.predict");
      rows += score_rows(*model_, replay, hash);
    }
    add_counter(counters, "features.stream_rows", stream_rows, "count");
    add_counter(counters, "ml.rows_scored", static_cast<double>(rows),
                "count");
    if (rows != first.hashes[2] || hash != first.hashes[0]) {
      detail += "traced serving replay scored " + std::to_string(rows) +
                " rows, ServingStats::scored is " +
                std::to_string(first.hashes[2]) + "\n";
      return false;
    }
    return true;
  }

  bool verify(std::string& detail) override {
    sim::FleetTrace fleet;
    for (const std::string& file : files_) {
      const sim::TraceReader reader(file);
      fleet.platform = reader.platform();
      fleet.horizon = reader.horizon();
      for (std::size_t i = 0; i < reader.dimm_count(); ++i) {
        fleet.dimms.push_back(reader.read_dimm(i));
      }
    }
    bool ok = true;
    // Alarm-free, as timed, and at a threshold that alarms, which
    // exercises the engine's speculative scoring and rollback.
    for (const double threshold : {kNoAlarms, 0.5}) {
      const mlops::ServingStats engine = serve(threshold);
      mlops::AlarmSystem alarms;
      mlops::Monitoring monitoring;
      mlops::ServingEngine reference(*model_, threshold, store_, alarms,
                                     monitoring);
      const mlops::ServingStats expected = reference.run_reference(
          fleet, kServeStart, kServeEnd, kServeCadence);
      if (!same_stats(engine, expected)) {
        detail += "run_over_store differs from run_reference at threshold " +
                  std::to_string(threshold) + "\n";
        ok = false;
      }
    }
    return ok;
  }

 private:
  mlops::ServingStats serve(double threshold) {
    mlops::AlarmSystem alarms;
    mlops::Monitoring monitoring;
    mlops::ServingConfig config;
    config.num_threads = options_.threads;
    config.now_ns = now_ns;
    mlops::ServingEngine engine(*model_, threshold, store_, alarms, monitoring,
                                config);
    return engine.run_over_store(files_, kServeStart, kServeEnd,
                                 kServeCadence);
  }

  WorkloadOptions options_;
  std::unique_ptr<ml::BinaryClassifier> model_;
  const mlops::FeatureStore store_;
  std::vector<std::string> files_;
  std::vector<Metric> setup_counters_;
};

// ---------------------------------------------------------------------------
// serve-storm: the same serving and window-state layers under CE storms —
// fat windows, admission shedding and tail latency.
// ---------------------------------------------------------------------------

constexpr SimTime kStormStart = days(6);
constexpr SimTime kStormEnd = days(16);
// Sub-day cadence keeps ~20 ticks inside the 5-day observation window, so a
// storm DIMM's window holds ~20 bursts: scoring it every tick is what hurts.
constexpr SimDuration kStormCadence = hours(6);
constexpr int kStormCesPerTick = 400;

/// A generated CE-storm fleet: a seed-chosen eighth of the DIMMs log
/// kStormCesPerTick CEs per cadence tick over a seed-chosen set of cells,
/// the rest trickle one CE a tick.
sim::FleetTrace storm_fleet(std::size_t dimms, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> order(dimms);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  std::vector<bool> storms(dimms, false);
  for (std::size_t i = 0; i < dimms / 8; ++i) storms[order[i]] = true;

  sim::FleetTrace fleet;
  fleet.platform = dram::Platform::kIntelPurley;
  fleet.horizon = kStormEnd + days(1);
  fleet.dimms.resize(dimms);
  for (std::size_t id = 0; id < dimms; ++id) {
    sim::DimmTrace& dimm = fleet.dimms[id];
    dimm.id = static_cast<dram::DimmId>(id);
    const int per_tick = storms[id] ? kStormCesPerTick : 1;
    std::vector<dram::CeEvent> cells(static_cast<std::size_t>(per_tick));
    for (dram::CeEvent& ce : cells) {
      ce.coord.bank = static_cast<int>(rng.uniform_u64(16));
      ce.coord.row = static_cast<int>(rng.uniform_u64(4096));
      ce.coord.column = static_cast<int>(rng.uniform_u64(128));
      ce.pattern.add({static_cast<std::uint8_t>(rng.uniform_u64(8)),
                      static_cast<std::uint8_t>(rng.uniform_u64(8))});
    }
    dimm.ces.reserve(static_cast<std::size_t>(per_tick) *
                     ((kStormEnd - kStormStart) / kStormCadence + 1));
    for (SimTime t = kStormStart; t <= kStormEnd; t += kStormCadence) {
      for (int k = 0; k < per_tick; ++k) {
        dram::CeEvent ce = cells[static_cast<std::size_t>(k)];
        ce.time = t - kStormCadence + 1 + k * (kStormCadence - 1) / per_tick;
        dimm.ces.push_back(std::move(ce));
      }
    }
  }
  return fleet;
}

class ServeStorm final : public Workload {
 public:
  explicit ServeStorm(const WorkloadOptions& options) : options_(options) {}

  int warmup_passes() const override { return 1; }

  void setup(Tracer* tracer) override {
    model_.reset();
    fleet_ = {};
    model_ = train_model(options_.scale, options_.threads, tracer);
    fleet_ = storm_fleet(
        static_cast<std::size_t>(std::max(64.0, 4096.0 * options_.scale)),
        derive(options_.seed, 3));
  }

  PassOutput pass(std::size_t) override {
    return serving_output(serve(true));
  }

  bool traced_pass(Tracer& tracer, const PassOutput& first,
                   std::vector<Metric>& counters,
                   std::string& detail) override {
    StreamRows replay;
    double stream_rows = 0.0;
    {
      Span span(&tracer, "features.stream");
      replay = replay_streams(store_, fleet_.dimms, kStormStart, kStormEnd,
                              kStormCadence);
      for (const ml::Matrix& m : replay.rows) stream_rows += m.rows();
    }
    std::uint64_t hash = sim::kFnvOffset;
    std::uint64_t rows = 0;
    {
      Span span(&tracer, "ml.predict");
      rows = score_rows(*model_, replay, hash);
    }
    add_counter(counters, "features.stream_rows", stream_rows, "count");
    add_counter(counters, "ml.rows_scored", static_cast<double>(rows),
                "count");
    // The replay scores every opportunity; admission sheds some of them.
    if (rows != first.hashes[2] + first.hashes[3]) {
      detail += "traced storm replay scored " + std::to_string(rows) +
                " rows, ServingStats::scored + shed_scores is " +
                std::to_string(first.hashes[2] + first.hashes[3]) + "\n";
      return false;
    }
    return true;
  }

  bool verify(std::string& detail) override {
    bool ok = true;
    const mlops::ServingStats off = serve(false);
    mlops::AlarmSystem alarms;
    mlops::Monitoring monitoring;
    mlops::ServingEngine reference(*model_, kNoAlarms, store_, alarms,
                                   monitoring);
    const mlops::ServingStats expected = reference.run_reference(
        fleet_, kStormStart, kStormEnd, kStormCadence);
    if (!same_stats(off, expected)) {
      detail += "run_over with admission off differs from run_reference\n";
      ok = false;
    }
    const mlops::ServingStats on = serve(true);
    if (on.scored + on.shed_scores != off.scored) {
      detail += "admission: scored + shed_scores != admission-off scored\n";
      ok = false;
    }
    return ok;
  }

 private:
  mlops::ServingStats serve(bool admission) {
    mlops::AlarmSystem alarms;
    mlops::Monitoring monitoring;
    mlops::ServingConfig config;
    config.shards = std::max<std::size_t>(1, fleet_.dimms.size() / 128);
    config.num_threads = options_.threads;
    config.now_ns = now_ns;
    config.admission.enabled = admission;
    config.admission.tokens_per_tick = 16.0;
    config.admission.bucket_capacity = 128.0;
    config.admission.degraded_stride = 4;
    mlops::ServingEngine engine(*model_, kNoAlarms, store_, alarms, monitoring,
                                config);
    return engine.run_over(fleet_, kStormStart, kStormEnd, kStormCadence);
  }

  WorkloadOptions options_;
  std::unique_ptr<ml::BinaryClassifier> model_;
  const mlops::FeatureStore store_;
  sim::FleetTrace fleet_;
};

// ---------------------------------------------------------------------------
// table2: the paper's Table II evaluation loop — a cold CampaignEngine over
// {purley, whitley, k920} × platform ECC × {gbdt, rf} × {tuned, fixed-0.5},
// plus the Risky-CE cell on Purley. The only workload that trains.
// ---------------------------------------------------------------------------

// Fleet scale of the campaign scenarios, relative to the calibrated paper
// scenarios (~5.5k planned DIMMs for Purley over 273 days). A tenth keeps a
// pass near 3 s on 4 CPUs, so a run holds several passes; at full scale a
// pass takes about 26 s and 1.3 GB.
constexpr double kTable2Scale = 0.1;

// Independent sets of Table II fleets per run, one per pass in turn. At a
// tenth of the paper's scale one set's work varies from seed to seed by
// about 11% (IQR over median, host drift cancelled against a fixed seed),
// chiefly through the serial Risky-CE cell; a run that repeated one set
// would carry all of that into its median.
constexpr std::size_t kTable2Fleets = 3;

core::CampaignSpec table2_spec(std::uint64_t seed, double scale) {
  core::CampaignSpec spec;
  spec.name = "table2";
  const double factor = kTable2Scale * scale;
  spec.scenarios = {
      {"purley", sim::purley_scenario(derive(seed, 11)).scaled(factor)},
      {"whitley", sim::whitley_scenario(derive(seed, 12)).scaled(factor)},
      {"k920", sim::k920_scenario(derive(seed, 13)).scaled(factor)}};
  spec.eccs = {core::EccSpec{}};
  core::PredictorSpec gbdt;
  gbdt.name = "gbdt";
  gbdt.algorithm = core::Algorithm::kLightGbm;
  gbdt.train_seed = derive(seed, 14);
  core::PredictorSpec rf;
  rf.name = "rf";
  rf.algorithm = core::Algorithm::kRandomForest;
  rf.train_seed = derive(seed, 15);
  spec.predictors = {gbdt, rf};
  core::PolicySpec tuned;
  tuned.name = "tuned";
  core::PolicySpec fixed;
  fixed.name = "fixed-0.5";
  fixed.mode = core::PolicySpec::Threshold::kFixed;
  fixed.fixed_threshold = 0.5;
  spec.policies = {tuned, fixed};
  spec.sampling.seed = derive(seed, 16);
  return spec;
}

std::uint64_t result_hash(const core::Experiment::Result& r) {
  std::uint64_t h = sim::kFnvOffset;
  for (const std::size_t count :
       {r.confusion.tp, r.confusion.fp, r.confusion.fn, r.confusion.tn}) {
    h = sim::fnv1a_u64(h, count);
  }
  return sim::fnv1a_u64(h, std::bit_cast<std::uint64_t>(r.f1));
}

std::uint64_t fleet_events(const sim::FleetTrace& fleet) {
  std::uint64_t events = 0;
  for (const sim::DimmTrace& dimm : fleet.dimms) {
    events += dimm.ces.size() + dimm.events.size() + (dimm.ue ? 1 : 0);
  }
  return events;
}

class Table2 final : public Workload {
 public:
  explicit Table2(const WorkloadOptions& options) : options_(options) {
    for (std::size_t k = 0; k < inputs_.size(); ++k) {
      inputs_[k].spec = table2_spec(derive(options.seed, 20 + k), options.scale);
    }
  }

  int warmup_passes() const override { return 0; }
  std::size_t inputs() const override { return inputs_.size(); }

  void setup(Tracer* tracer) override {
    for (Input& input : inputs_) {
      input.risky.reset();
      input.purley = {};
      // The campaign simulates its own fleets inside the timed pass; set-up
      // simulates them once more to count the events a pass consumes, and
      // keeps Purley for the Risky-CE cell.
      input.events = 0;
      for (const core::ScenarioSpec& scenario : input.spec.scenarios) {
        Span span(tracer, "sim.simulate");
        sim::FleetTrace fleet = sim::simulate_fleet(scenario.params);
        input.events += fleet_events(fleet);
        if (scenario.params.platform == dram::Platform::kIntelPurley) {
          input.purley = std::move(fleet);
        }
      }
      input.events += fleet_events(input.purley);
      Span span(tracer, "features.extract");
      input.risky.emplace(input.purley, pipeline_config(input.spec));
    }
  }

  PassOutput pass(std::size_t i) override {
    Input& input = inputs_[i];
    core::CampaignConfig config;
    config.store_dir = options_.work_dir + "/table2";
    config.num_threads = options_.threads;
    core::CampaignEngine engine(config);
    const core::CampaignResult campaign = engine.run(input.spec);
    const core::Experiment::Result risky =
        input.risky->run(core::Algorithm::kRiskyCePattern);

    PassOutput out;
    out.ops = campaign.points.size() + 1;
    out.events = input.events;
    out.hashes = {campaign.campaign_hash, result_hash(risky)};
    double f1_sum = risky.f1;
    for (const core::CampaignPointResult& point : campaign.points) {
      f1_sum += point.f1;
    }
    add_counter(out.outputs, "f1_mean",
                f1_sum / static_cast<double>(out.ops), "F1");

    const core::CampaignRunStats& stats = campaign.stats;
    const auto runs = [&](const char* name, const core::StageCounters& c) {
      add_counter(out.counters, name, static_cast<double>(c.misses), "count");
    };
    runs("core.campaign.simulate_runs", stats.simulate);
    runs("core.campaign.extract_runs", stats.extract);
    runs("core.campaign.train_runs", stats.train);
    runs("core.campaign.score_runs", stats.score);
    add_counter(out.counters, "core.campaign.policy_sweeps",
                static_cast<double>(stats.policy_sweeps), "count");
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    for (const core::StageCounters& c :
         {stats.simulate, stats.extract, stats.train, stats.score}) {
      hits += c.hits;
      lookups += c.hits + c.misses;
    }
    add_counter(out.counters, "core.stage_cache.hit_ratio",
                ratio(hits, lookups), "share");
    add_counter(out.counters, "core.f1_mean", f1_sum / out.ops, "F1");
    return out;
  }

  /// Input 0's scenarios and model families through the layers directly:
  /// simulate, build the training set, fit each model, extract and score
  /// the held-out DIMMs, and the Risky-CE cell on Purley. The campaign's
  /// own split and cache are not repeated; its counters come from the
  /// untraced pass.
  bool traced_pass(Tracer& tracer, const PassOutput& first,
                   std::vector<Metric>& counters,
                   std::string& detail) override {
    const Input& input = inputs_.front();
    const auto fit_span = [](core::Algorithm algorithm) {
      return algorithm == core::Algorithm::kLightGbm ? "ml.fit_gbdt"
                                                     : "ml.fit_rf";
    };
    features::PredictionWindows eval_windows;
    eval_windows.cadence = core::PipelineConfig{}.eval_cadence;
    const features::FeatureExtractor extractor(eval_windows);
    double events = 0.0;
    double samples = 0.0;
    double rows = 0.0;
    bool ok = true;
    for (const core::ScenarioSpec& scenario : input.spec.scenarios) {
      sim::FleetTrace fleet;
      {
        Span span(&tracer, "sim.simulate");
        fleet = sim::simulate_fleet(scenario.params);
      }
      events += static_cast<double>(fleet_events(fleet));
      std::optional<core::Experiment> experiment;
      {
        Span span(&tracer, "features.extract");
        experiment.emplace(fleet, pipeline_config(input.spec));
      }
      samples += static_cast<double>(experiment->train_set().size());
      const std::vector<const sim::DimmTrace*>& test = experiment->test_dimms();
      for (const core::PredictorSpec& predictor : input.spec.predictors) {
        std::unique_ptr<ml::BinaryClassifier> model =
            core::make_model(predictor.algorithm);
        {
          Span span(&tracer, fit_span(predictor.algorithm));
          Rng rng(predictor.train_seed);
          model->fit(experiment->train_set(), rng);
        }
        std::vector<std::vector<features::Sample>> test_samples(test.size());
        {
          Span span(&tracer, "features.extract");
          ThreadPool::global().parallel_for(
              test.size(),
              [&](std::size_t i) {
                test_samples[i] = extractor.extract(*test[i], fleet.horizon);
              },
              1);
        }
        Span span(&tracer, "ml.predict");
        ml::Matrix x;
        for (const auto& dimm_samples : test_samples) {
          for (const features::Sample& sample : dimm_samples) {
            x.push_row(sample.features);
          }
        }
        samples += static_cast<double>(x.rows());
        rows += static_cast<double>(x.rows());
        if (x.rows() > 0) model->predict_batch(x);
      }
      if (scenario.params.platform == dram::Platform::kIntelPurley) {
        Span span(&tracer, "baseline.risky_ce");
        const core::Experiment::Result risky =
            experiment->run(core::Algorithm::kRiskyCePattern);
        if (result_hash(risky) != first.hashes[1]) {
          detail += "traced Risky-CE cell differs from the timed one\n";
          ok = false;
        }
      }
    }
    add_counter(counters, "sim.events", events, "count");
    add_counter(counters, "features.samples", samples, "count");
    add_counter(counters, "ml.rows_scored", rows, "count");
    return ok;
  }

  bool verify(std::string& detail) override {
    bool ok = true;
    for (const Input& input : inputs_) {
      std::vector<std::uint64_t> hashes;
      for (const int threads : {1, 4}) {
        core::CampaignConfig config;
        config.store_dir = options_.work_dir + "/table2-verify";
        config.num_threads = threads;
        core::CampaignEngine engine(config);
        hashes.push_back(engine.run(input.spec).campaign_hash);
        // A warm engine answers from its stage cache.
        hashes.push_back(engine.run(input.spec).campaign_hash);
      }
      if (std::adjacent_find(hashes.begin(), hashes.end(),
                             std::not_equal_to<>()) != hashes.end()) {
        detail += "campaign_hash differs across thread counts or cache "
                  "state\n";
        ok = false;
      }
    }
    return ok;
  }

 private:
  /// One set of Table II fleets and the state its passes need.
  struct Input {
    core::CampaignSpec spec;
    sim::FleetTrace purley;
    /// Holds a pointer to `purley`; inputs_ never moves.
    std::optional<core::Experiment> risky;
    std::uint64_t events = 0;
  };

  core::PipelineConfig pipeline_config(const core::CampaignSpec& spec) const {
    core::PipelineConfig config;
    config.seed = spec.sampling.seed;
    config.num_threads = options_.threads;
    return config;
  }

  WorkloadOptions options_;
  std::array<Input, kTable2Fleets> inputs_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options) {
  if (name == "fleet-batch") return std::make_unique<FleetBatch>(options);
  if (name == "serve-store") return std::make_unique<ServeStore>(options);
  if (name == "serve-storm") return std::make_unique<ServeStorm>(options);
  if (name == "table2") return std::make_unique<Table2>(options);
  return nullptr;
}

}  // namespace memfp::e2e
