#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "mlops/alarm.h"
#include "mlops/data_lake.h"
#include "sim/trace_store.h"
#include "mlops/feature_store.h"
#include "mlops/model_registry.h"
#include "mlops/monitoring.h"
#include "sim/fleet.h"

namespace memfp::mlops {
namespace {

TEST(DataLake, IngestAndRetrieve) {
  DataLake lake;
  sim::FleetTrace fleet;
  fleet.platform = dram::Platform::kK920;
  sim::DimmTrace dimm;
  dram::CeEvent ce;
  ce.time = days(1);
  ce.pattern.add({0, 0});
  dimm.ces.push_back(ce);
  fleet.dimms.push_back(dimm);
  lake.ingest("bmc/k920/h1", std::move(fleet));

  EXPECT_TRUE(lake.contains("bmc/k920/h1"));
  EXPECT_FALSE(lake.contains("bmc/k920/h2"));
  EXPECT_EQ(lake.get("bmc/k920/h1").platform, dram::Platform::kK920);
  EXPECT_EQ(lake.record_count(), 1u);
  EXPECT_THROW(lake.get("missing"), std::out_of_range);
  EXPECT_EQ(lake.partitions().size(), 1u);
}

TEST(DataLake, ReIngestReplaces) {
  DataLake lake;
  lake.ingest("p", sim::FleetTrace{});
  sim::FleetTrace bigger;
  bigger.dimms.resize(3);
  lake.ingest("p", std::move(bigger));
  EXPECT_EQ(lake.get("p").dimms.size(), 3u);
  EXPECT_EQ(lake.partitions().size(), 1u);
}

sim::FleetTrace tiny_fleet(int dimms, int ces_per_dimm) {
  sim::FleetTrace fleet;
  fleet.platform = dram::Platform::kIntelPurley;
  fleet.horizon = days(30);
  for (int d = 0; d < dimms; ++d) {
    sim::DimmTrace dimm;
    dimm.id = static_cast<dram::DimmId>(d);
    dimm.config.part_number = "PN-tiny";
    for (int i = 0; i < ces_per_dimm; ++i) {
      dram::CeEvent ce;
      ce.time = days(1) + hours(d) + minutes(i);
      ce.pattern.add({0, 0});
      dimm.ces.push_back(ce);
    }
    fleet.dimms.push_back(std::move(dimm));
  }
  return fleet;
}

TEST(DataLake, RecordCountCachedAcrossIdempotentBackfill) {
  DataLake lake;
  lake.ingest("p1", tiny_fleet(3, 4));
  lake.ingest("p2", tiny_fleet(2, 5));
  EXPECT_EQ(lake.record_count(), 3u * 4u + 2u * 5u);

  // Idempotent backfill: re-ingesting the same snapshot must replace, not
  // double-count (the cached counter regression this guards against).
  lake.ingest("p1", tiny_fleet(3, 4));
  EXPECT_EQ(lake.record_count(), 3u * 4u + 2u * 5u);
  lake.ingest("p1", tiny_fleet(1, 2));
  EXPECT_EQ(lake.record_count(), 1u * 2u + 2u * 5u);
}

/// Writes `fleet` as a sealed shard set of `per_shard` DIMMs per shard into
/// a fresh `dir`, the way the fleet driver's keep_store run leaves one.
void write_shard_set(const std::filesystem::path& dir,
                     const sim::FleetTrace& fleet, std::size_t per_shard) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (std::size_t begin = 0, shard = 0; begin < fleet.dimms.size();
       begin += per_shard, ++shard) {
    sim::ShardWriter writer(sim::shard_path(dir.string(), shard),
                            fleet.platform, fleet.horizon);
    for (std::size_t i = begin;
         i < std::min(fleet.dimms.size(), begin + per_shard); ++i) {
      writer.append(fleet.dimms[i]);
    }
    writer.finish();
  }
}

/// Streams a partition and checks it yields exactly `expected`'s DIMMs.
void expect_streams(const DataLake& lake, const std::string& partition,
                    const sim::FleetTrace& expected) {
  std::size_t next = 0;
  lake.for_each_dimm(partition, [&](const sim::DimmTrace& dimm) {
    ASSERT_LT(next, expected.dimms.size());
    EXPECT_EQ(sim::trace_content_hash(dimm),
              sim::trace_content_hash(expected.dimms[next]));
    ++next;
  });
  EXPECT_EQ(next, expected.dimms.size());
}

TEST(DataLake, SpillOnIngestRoundTrip) {
  const auto dir =
      std::filesystem::temp_directory_path() / "memfp_lake_spill_test";
  const sim::FleetTrace original = tiny_fleet(5, 3);
  write_shard_set(dir, original, 2);

  DataLake lake;
  lake.ingest_shards("bmc/purley/big", dir.string());

  EXPECT_TRUE(lake.spilled("bmc/purley/big"));
  EXPECT_EQ(lake.record_count(), 15u);
  EXPECT_THROW(lake.get("bmc/purley/big"), std::logic_error);
  const DataLake::PartitionInfo info = lake.info("bmc/purley/big");
  EXPECT_EQ(info.dimms, 5u);
  EXPECT_EQ(info.horizon, days(30));
  EXPECT_TRUE(info.spilled);

  // Stream-on-read sees the identical DIMM sequence...
  expect_streams(lake, "bmc/purley/big", original);

  // ...and materialize round-trips the whole snapshot.
  const sim::FleetTrace decoded = lake.materialize("bmc/purley/big");
  ASSERT_EQ(decoded.dimms.size(), original.dimms.size());
  EXPECT_EQ(decoded.horizon, original.horizon);

  // A small backfill replaces the spill with a resident partition, deletes
  // the dead shard files, and prunes the emptied shard directory.
  lake.ingest("bmc/purley/big", tiny_fleet(1, 1));
  EXPECT_FALSE(lake.spilled("bmc/purley/big"));
  EXPECT_EQ(lake.record_count(), 1u);
  EXPECT_FALSE(std::filesystem::exists(dir));
  std::filesystem::remove_all(dir);
}

TEST(DataLake, ReIngestSpilledPartitionWithSpill) {
  const auto root =
      std::filesystem::temp_directory_path() / "memfp_lake_respill_test";
  std::filesystem::remove_all(root);
  write_shard_set(root / "first", tiny_fleet(5, 3), 2);
  const sim::FleetTrace second = tiny_fleet(6, 2);
  write_shard_set(root / "second", second, 2);

  DataLake lake;
  lake.ingest_shards("p", (root / "first").string());
  ASSERT_TRUE(lake.spilled("p"));

  // Idempotent backfill of a live spill with a new shard set: the old set's
  // files go, the replacement's stay.
  lake.ingest_shards("p", (root / "second").string());
  EXPECT_TRUE(lake.spilled("p"));
  EXPECT_EQ(lake.record_count(), 12u);
  EXPECT_FALSE(std::filesystem::exists(root / "first"));
  expect_streams(lake, "p", second);
  EXPECT_EQ(lake.materialize("p").dimms.size(), 6u);
  std::filesystem::remove_all(root);
}

TEST(DataLake, SpillDirsCollisionFreeAcrossPartitions) {
  const auto root =
      std::filesystem::temp_directory_path() / "memfp_lake_collide_test";
  std::filesystem::remove_all(root);
  const sim::FleetTrace slash = tiny_fleet(3, 2);
  const sim::FleetTrace underscore = tiny_fleet(3, 5);
  write_shard_set(root / "slash", slash, 2);
  write_shard_set(root / "underscore", underscore, 2);

  DataLake lake;
  lake.ingest_shards("a/b", (root / "slash").string());
  lake.ingest_shards("a_b", (root / "underscore").string());
  expect_streams(lake, "a/b", slash);

  // Replacing one partition must leave the other's files intact.
  lake.ingest("a/b", tiny_fleet(4, 1));
  EXPECT_FALSE(std::filesystem::exists(root / "slash"));
  expect_streams(lake, "a_b", underscore);
  std::filesystem::remove_all(root);
}

TEST(DataLake, AdoptSameShardSetTwiceKeepsFiles) {
  const auto dir =
      std::filesystem::temp_directory_path() / "memfp_lake_readopt_test";
  const sim::FleetTrace fleet = tiny_fleet(5, 3);
  write_shard_set(dir, fleet, 2);

  DataLake lake;
  lake.ingest_shards("p", dir.string());
  // Idempotent backfill of the very same shard set, also through another
  // spelling of its directory: the adopted files are live, not dead.
  lake.ingest_shards("p", dir.string());
  lake.ingest_shards("p", dir.string() + "/.");
  ASSERT_TRUE(std::filesystem::exists(dir));
  ASSERT_EQ(sim::list_shards(dir.string()).size(), 3u);
  EXPECT_TRUE(lake.spilled("p"));
  EXPECT_EQ(lake.record_count(), 15u);
  expect_streams(lake, "p", fleet);
  std::filesystem::remove_all(dir);
}

TEST(DataLake, AdoptingAnotherPartitionsShardsThrows) {
  const auto dir =
      std::filesystem::temp_directory_path() / "memfp_lake_owned_test";
  const sim::FleetTrace fleet = tiny_fleet(4, 2);
  write_shard_set(dir, fleet, 2);

  DataLake lake;
  lake.ingest_shards("a", dir.string());
  EXPECT_THROW(lake.ingest_shards("b", dir.string()), std::invalid_argument);
  EXPECT_FALSE(lake.contains("b"));
  EXPECT_EQ(lake.record_count(), 8u);
  // The owner is untouched.
  expect_streams(lake, "a", fleet);
  std::filesystem::remove_all(dir);
}

TEST(DataLake, AdoptExistingShardSet) {
  const auto dir =
      std::filesystem::temp_directory_path() / "memfp_lake_adopt_test";
  write_shard_set(dir, tiny_fleet(4, 2), 4);
  DataLake lake;
  lake.ingest_shards("adopted", dir.string());
  EXPECT_TRUE(lake.spilled("adopted"));
  EXPECT_EQ(lake.record_count(), 8u);
  EXPECT_EQ(lake.info("adopted").dimms, 4u);
  EXPECT_THROW(lake.ingest_shards("empty", (dir / "nope").string()),
               std::invalid_argument);
  std::filesystem::remove_all(dir);
}

TEST(FeatureStore, CatalogListsAllFeatures) {
  FeatureStore store;
  const Json catalog = store.catalog();
  EXPECT_EQ(catalog.at("features").as_array().size(), store.schema().size());
  // Categorical entries carry their cardinality.
  bool saw_categorical = false;
  for (const Json& entry : catalog.at("features").as_array()) {
    if (entry.at("type").as_string() == "categorical") {
      saw_categorical = true;
      EXPECT_GT(entry.at("cardinality").as_int(), 1);
    }
  }
  EXPECT_TRUE(saw_categorical);
}

TEST(FeatureStore, TrainingServingConsistency) {
  FeatureStore store;
  const sim::FleetTrace fleet =
      sim::simulate_fleet(sim::purley_scenario().scaled(0.02));
  int checked = 0;
  for (const sim::DimmTrace& dimm : fleet.dimms) {
    if (dimm.ces.empty()) continue;
    for (SimTime t : {days(30), days(100), days(200)}) {
      EXPECT_TRUE(store.check_consistency(dimm, t, fleet.horizon))
          << "dimm " << dimm.id << " t=" << t;
    }
    if (++checked >= 10) break;
  }
  EXPECT_GT(checked, 0);
}

TEST(ModelRegistry, FirstPromotionAlwaysPasses) {
  ModelRegistry registry;
  ModelVersion v;
  v.platform = dram::Platform::kIntelPurley;
  v.benchmark_f1 = 0.5;
  const int id = registry.add(std::move(v));
  EXPECT_TRUE(registry.promote(id));
  ASSERT_NE(registry.production(dram::Platform::kIntelPurley), nullptr);
  EXPECT_EQ(registry.production(dram::Platform::kIntelPurley)->version, id);
}

TEST(ModelRegistry, GateRejectsWorseCandidate) {
  ModelRegistry registry;
  ModelVersion good;
  good.platform = dram::Platform::kIntelPurley;
  good.benchmark_f1 = 0.6;
  const int good_id = registry.add(std::move(good));
  registry.promote(good_id);

  ModelVersion worse;
  worse.platform = dram::Platform::kIntelPurley;
  worse.benchmark_f1 = 0.55;
  const int worse_id = registry.add(std::move(worse));
  EXPECT_FALSE(registry.promote(worse_id, 0.0));
  EXPECT_EQ(registry.production(dram::Platform::kIntelPurley)->version,
            good_id);
  EXPECT_EQ(registry.get(worse_id)->stage, ModelStage::kStaging);
}

TEST(ModelRegistry, PromotionArchivesIncumbent) {
  ModelRegistry registry;
  ModelVersion first;
  first.platform = dram::Platform::kK920;
  first.benchmark_f1 = 0.4;
  const int first_id = registry.add(std::move(first));
  registry.promote(first_id);

  ModelVersion second;
  second.platform = dram::Platform::kK920;
  second.benchmark_f1 = 0.5;
  const int second_id = registry.add(std::move(second));
  EXPECT_TRUE(registry.promote(second_id));
  EXPECT_EQ(registry.get(first_id)->stage, ModelStage::kArchived);
  EXPECT_EQ(registry.production(dram::Platform::kK920)->version, second_id);
}

TEST(ModelRegistry, PlatformsAreIndependent) {
  ModelRegistry registry;
  ModelVersion purley;
  purley.platform = dram::Platform::kIntelPurley;
  purley.benchmark_f1 = 0.9;
  registry.promote(registry.add(std::move(purley)));
  EXPECT_EQ(registry.production(dram::Platform::kK920), nullptr);

  ModelVersion k920;
  k920.platform = dram::Platform::kK920;
  k920.benchmark_f1 = 0.1;  // worse than Purley's, but a different platform
  const int id = registry.add(std::move(k920));
  EXPECT_TRUE(registry.promote(id));
}

TEST(ModelRegistry, JsonRoundTrip) {
  ModelRegistry registry;
  ModelVersion v;
  v.platform = dram::Platform::kIntelWhitley;
  v.algorithm = "LightGBM";
  v.benchmark_f1 = 0.49;
  v.threshold = 0.8;
  v.artifact = Json::object().set("type", "gbdt");
  const int id = registry.add(std::move(v));
  registry.promote(id);

  const ModelRegistry restored =
      ModelRegistry::from_json(Json::parse(registry.to_json().dump()));
  const ModelVersion* production =
      restored.production(dram::Platform::kIntelWhitley);
  ASSERT_NE(production, nullptr);
  EXPECT_EQ(production->algorithm, "LightGBM");
  EXPECT_DOUBLE_EQ(production->threshold, 0.8);
  // Version numbering continues after the restore.
  ModelRegistry mutable_restored = restored;
  ModelVersion next;
  next.platform = dram::Platform::kIntelWhitley;
  EXPECT_GT(mutable_restored.add(std::move(next)), id);
}

TEST(AlarmSystem, CoalescesRepeatAlarms) {
  AlarmSystem alarms;
  alarms.raise(1, days(1), 0.9);
  alarms.raise(1, days(2), 0.95);
  alarms.raise(2, days(3), 0.8);
  EXPECT_EQ(alarms.alarms().size(), 2u);
  EXPECT_EQ(*alarms.first_alarm(1), days(1));
  EXPECT_FALSE(alarms.first_alarm(99).has_value());
}

TEST(Mitigation, AccountingMatchesPaperFormula) {
  // 2 timely TPs, 1 FP, 1 missed FN.
  sim::FleetTrace fleet;
  AlarmSystem alarms;
  features::PredictionWindows windows;
  for (int i = 0; i < 2; ++i) {
    sim::DimmTrace dimm;
    dimm.id = static_cast<dram::DimmId>(i);
    dram::CeEvent ce;
    ce.time = days(1);
    ce.pattern.add({0, 0});
    dimm.ces.push_back(ce);
    dimm.ue = dram::UeEvent{};
    dimm.ue->time = days(20);
    dimm.ue->had_prior_ce = true;
    fleet.dimms.push_back(dimm);
    alarms.raise(dimm.id, days(19), 0.9);
  }
  sim::DimmTrace missed = fleet.dimms[0];
  missed.id = 10;
  fleet.dimms.push_back(missed);
  sim::DimmTrace healthy;
  healthy.id = 20;
  fleet.dimms.push_back(healthy);
  alarms.raise(20, days(5), 0.7);

  MitigationPolicy policy;
  policy.vms_per_server = 10.0;
  policy.cold_migration_fraction = 0.1;
  const MitigationReport report =
      account_mitigations(fleet, alarms, windows, policy);
  EXPECT_EQ(report.true_positives, 2u);
  EXPECT_EQ(report.false_positives, 1u);
  EXPECT_EQ(report.false_negatives, 1u);
  EXPECT_DOUBLE_EQ(report.interruptions_without_prediction, 30.0);
  EXPECT_DOUBLE_EQ(report.interruptions_with_prediction, 10.0 * 0.1 * 3 + 10.0);
  EXPECT_NEAR(report.realized_virr, (30.0 - 13.0) / 30.0, 1e-12);
}

TEST(Monitoring, CountersAndFeedback) {
  Monitoring monitoring;
  monitoring.record_ingest(100);
  monitoring.record_prediction(0.2);
  monitoring.record_prediction(0.9);
  monitoring.record_alarm();
  monitoring.record_alarm_feedback(true);
  monitoring.record_alarm_feedback(false);
  monitoring.record_missed_failure();
  EXPECT_EQ(monitoring.ingested(), 100u);
  EXPECT_EQ(monitoring.predictions(), 2u);
  EXPECT_EQ(monitoring.alarms(), 1u);
  EXPECT_DOUBLE_EQ(monitoring.online_precision(), 0.5);
  EXPECT_DOUBLE_EQ(monitoring.online_recall(), 0.5);
  EXPECT_NE(monitoring.dashboard().find("alarms raised"), std::string::npos);
}

TEST(Monitoring, DriftDetection) {
  Monitoring monitoring;
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    monitoring.record_prediction(rng.uniform(0.0, 0.3));
  }
  monitoring.freeze_reference();
  // Same distribution: no drift.
  for (int i = 0; i < 2000; ++i) {
    monitoring.record_prediction(rng.uniform(0.0, 0.3));
  }
  EXPECT_FALSE(monitoring.drift_detected());
  // Shifted scores: drift.
  for (int i = 0; i < 4000; ++i) {
    monitoring.record_prediction(rng.uniform(0.5, 1.0));
  }
  EXPECT_TRUE(monitoring.drift_detected());
}

}  // namespace
}  // namespace memfp::mlops
