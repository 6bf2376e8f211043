#include "core/fleet_driver.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "dram/geometry.h"
#include "ml/dataset.h"

namespace memfp::core {

std::uint64_t fold_sample_hash(std::uint64_t h,
                               const features::Sample& sample) {
  h = sim::fnv1a_u64(h, sample.dimm);
  h = sim::fnv1a_u64(h, static_cast<std::uint64_t>(sample.time));
  h = sim::fnv1a_u64(h,
                static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(sample.label)));
  for (const float value : sample.features) {
    h = sim::fnv1a_u64(h, std::bit_cast<std::uint32_t>(value));
  }
  return h;
}

namespace {

void fold_scores(const ml::BinaryClassifier* model, const ml::Matrix& x,
                 FleetDriverResult& result) {
  if (model == nullptr || x.rows() == 0) return;
  // predict_batch is contractually bit-identical to the serial per-row walk
  // at any thread count, so batching per shard (here) vs per fleet (the
  // reference) cannot change a single score bit.
  const std::vector<double> scores = model->predict_batch(x);
  for (const double score : scores) {
    result.score_hash =
        sim::fnv1a_u64(result.score_hash, std::bit_cast<std::uint64_t>(score));
    result.score_sum += score;
  }
}

}  // namespace

SimulatedShard simulate_shard(std::span<const sim::PlannedDimm> jobs,
                              const sim::ScenarioParams& params,
                              const sim::DimmSimulator& simulator,
                              const dram::Geometry& geometry,
                              const std::string& path,
                              std::uint64_t trace_hash) {
  // Simulate into index slots, as the in-memory builder does.
  std::vector<sim::DimmTrace> traces(jobs.size());
  ThreadPool::global().parallel_for(
      jobs.size(),
      [&](std::size_t i) {
        traces[i] =
            sim::simulate_planned_dimm(jobs[i], params, simulator, geometry);
      },
      /*grain=*/1);

  // Compact the observed DIMMs to the front, then encode + spill them in
  // one batch (parallel encode, frames in id order), folding each content
  // hash into the running trace hash in id order.
  std::size_t observed = 0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (!sim::enters_observed_dataset(jobs[i].kind, traces[i])) continue;
    if (observed != i) traces[observed] = std::move(traces[i]);
    ++observed;
  }
  traces.resize(observed);

  SimulatedShard shard;
  shard.trace_hash = trace_hash;
  sim::ShardWriter writer(path, params.platform, params.horizon);
  for (const std::uint64_t hash : writer.append(traces)) {
    shard.trace_hash = sim::fnv1a_u64(shard.trace_hash, hash);
  }
  shard.observed = std::move(traces);
  shard.stats = writer.finish();
  return shard;
}

FleetDriverResult run_fleet_driver(const sim::ScenarioParams& params,
                                   const FleetDriverConfig& config,
                                   const ml::BinaryClassifier* model,
                                   const sim::DimmSimParams& sim_params) {
  MEMFP_CHECK(!config.store_dir.empty())
      << "run_fleet_driver: config.store_dir must name a spill directory";
  std::filesystem::create_directories(config.store_dir);

  sim::DimmSimParams effective = sim_params;
  effective.horizon = params.horizon;
  const sim::DimmSimulator simulator(params.platform, effective);
  const dram::Geometry geometry = dram::Geometry::ddr4_x4();
  const features::FeatureExtractor extractor(config.windows);

  ThreadPool::ScopedLimit limit(config.num_threads);

  FleetDriverResult result;
  sim::FleetPlanner planner(params);
  const std::size_t total = planner.plan().total();
  result.planned_dimms = total;
  const std::size_t shards = std::max<std::size_t>(1, config.shards);

  for (std::size_t s = 0; s < shards; ++s) {
    // Contiguous near-equal id ranges; the planner cursor guarantees shard
    // s's jobs depend only on (seed, id range), never on the split.
    const std::size_t begin = s * total / shards;
    const std::size_t end = (s + 1) * total / shards;
    MEMFP_CHECK_EQ(planner.produced(), begin);
    const std::vector<sim::PlannedDimm> jobs = planner.take(end - begin);
    if (jobs.empty()) continue;

    const std::string path = sim::shard_path(config.store_dir, s);
    SimulatedShard shard = simulate_shard(jobs, params, simulator, geometry,
                                          path, result.trace_hash);
    result.trace_hash = shard.trace_hash;
    result.observed_dimms += shard.stats.dimms;
    result.ce_records += shard.stats.ce_records;
    result.mem_events += shard.stats.mem_events;
    result.ue_records += shard.stats.ue_records;
    result.suppressed_ces += shard.stats.suppressed_ces;
    result.encoded_bytes += shard.stats.file_bytes;

    // Drop the simulated residents: from here on the shard is read back
    // from its encoded form, exactly as a later training run would.
    shard.observed.clear();
    shard.observed.shrink_to_fit();

    const sim::TraceReader reader(path);
    std::vector<std::vector<features::Sample>> samples(reader.dimm_count());
    ThreadPool::global().parallel_for(
        reader.dimm_count(),
        [&](std::size_t i) {
          samples[i] = extractor.extract(reader.read_dimm(i), params.horizon);
        },
        /*grain=*/1);

    // Fold features and score the shard in one flat batch, in id order.
    ml::Matrix x;
    for (const std::vector<features::Sample>& dimm_samples : samples) {
      for (const features::Sample& sample : dimm_samples) {
        result.feature_hash = fold_sample_hash(result.feature_hash, sample);
        x.push_row(sample.features);
      }
    }
    result.samples += x.rows();
    fold_scores(model, x, result);

    if (config.keep_store) {
      result.shard_files.push_back(path);
    } else {
      std::remove(path.c_str());
    }
  }
  MEMFP_CHECK_EQ(planner.produced(), total);

  MEMFP_INFO << "fleet driver: " << result.planned_dimms << " planned, "
             << result.observed_dimms << " observed across " << shards
             << " shards, " << result.events() << " events, "
             << result.encoded_bytes << " encoded bytes, " << result.samples
             << " samples";
  return result;
}

FleetDriverResult reference_fleet_result(const sim::ScenarioParams& params,
                                         const features::PredictionWindows&
                                             windows,
                                         const ml::BinaryClassifier* model,
                                         const sim::DimmSimParams& sim_params) {
  const sim::FleetTrace fleet = sim::simulate_fleet(params, sim_params);
  const features::FeatureExtractor extractor(windows);

  FleetDriverResult result;
  result.planned_dimms = sim::plan_fleet(params).total();
  result.observed_dimms = fleet.dimms.size();

  std::vector<std::vector<features::Sample>> samples(fleet.dimms.size());
  ThreadPool::global().parallel_for(
      fleet.dimms.size(),
      [&](std::size_t i) {
        samples[i] = extractor.extract(fleet.dimms[i], params.horizon);
      },
      /*grain=*/1);

  std::vector<std::uint8_t> scratch;
  ml::Matrix x;
  for (std::size_t i = 0; i < fleet.dimms.size(); ++i) {
    const sim::DimmTrace& dimm = fleet.dimms[i];
    result.ce_records += dimm.ces.size();
    result.mem_events += dimm.events.size();
    result.ue_records += dimm.ue.has_value() ? 1 : 0;
    result.suppressed_ces += dimm.suppressed_ce_count;
    // Payload bytes only — the sharded path additionally counts each
    // shard's header/index/footer framing, so encoded_bytes is a stat, not
    // part of the byte-identity contract (the hashes are).
    scratch.clear();
    sim::encode_dimm_record(dimm, scratch);
    result.encoded_bytes += scratch.size();
    result.trace_hash = sim::fnv1a_u64(result.trace_hash, sim::trace_content_hash(dimm));
    for (const features::Sample& sample : samples[i]) {
      result.feature_hash = fold_sample_hash(result.feature_hash, sample);
      x.push_row(sample.features);
    }
  }
  result.samples += x.rows();
  fold_scores(model, x, result);
  return result;
}

}  // namespace memfp::core
