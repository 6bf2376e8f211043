#include "mlops/serving.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "common/thread_pool.h"

namespace memfp::mlops {
namespace {

/// Cache-blocking factor: streams per serving cohort. A cohort advances
/// through the whole tick range before the next cohort starts, so its
/// extraction states stay cache-resident; larger cohorts fill inference
/// batches better, smaller ones stay hotter. Purely a performance constant —
/// results are byte-identical at any value.
constexpr std::size_t kCohortStreams = 16;

std::uint64_t fold_score(std::uint64_t h, dram::DimmId dimm, SimTime t,
                         double score) {
  h = sim::fnv1a_u64(h, static_cast<std::uint64_t>(dimm));
  h = sim::fnv1a_u64(h, static_cast<std::uint64_t>(t));
  return sim::fnv1a_u64(h, std::bit_cast<std::uint64_t>(score));
}

std::uint64_t fold_alarms(const AlarmSystem& alarms) {
  std::uint64_t h = sim::kFnvOffset;
  for (const Alarm& alarm : alarms.alarms()) {
    h = fold_score(h, alarm.dimm, alarm.time, alarm.score);
  }
  return h;
}

}  // namespace

std::size_t serving_shard_of(std::size_t index, std::size_t total,
                             std::size_t shards) {
  MEMFP_CHECK(index < total) << "stream index outside the fleet";
  // Inverse of the contiguous range map begin(s) = s * total / shards: the
  // smallest s with begin(s + 1) > index.
  std::size_t s = (index * shards) / total;
  while ((s + 1) * total / shards <= index) ++s;
  return s;
}

ServingEngine::ServingEngine(const ml::BinaryClassifier& model,
                             double threshold, const FeatureStore& store,
                             AlarmSystem& alarms, Monitoring& monitoring,
                             ServingConfig config)
    : model_(&model),
      threshold_(threshold),
      store_(&store),
      alarms_(&alarms),
      monitoring_(&monitoring),
      config_(std::move(config)) {
  MEMFP_CHECK(config_.batch_rows > 0) << "batch_rows must be positive";
  MEMFP_CHECK(config_.queue_capacity > 0) << "queue_capacity must be positive";
  MEMFP_CHECK(!config_.admission.enabled ||
              config_.admission.degraded_stride > 0)
      << "degraded_stride must be positive";
}

std::optional<double> ServingEngine::score_row(
    dram::DimmId dimm, SimTime t, const std::vector<float>& features) {
  if (features.empty()) return std::nullopt;  // no observation window
  const double score = model_->predict(features);
  record_outcome(dimm, t, score);
  return score;
}

bool ServingEngine::record_outcome(dram::DimmId dimm, SimTime t,
                                   double score) {
  monitoring_->record_prediction(score);
  if (!crossing(score)) return false;
  alarms_->raise(dimm, t, score);
  monitoring_->record_alarm();
  return true;
}

ServingEngine::ShardOutput ServingEngine::serve_shard(
    const sim::DimmTrace* dimms, std::size_t count, SimTime start, SimTime end,
    SimDuration cadence) const {
  struct Cursor {
    const sim::DimmTrace* dimm = nullptr;
    features::OnlineExtractorState stream;
    std::size_t next_ce = 0;
    std::size_t next_event = 0;
    bool stopped = false;
    bool pre_alarmed = false;  // alarmed before this run: one tick, then stop
    bool alarm_latched = false;
    bool fed = false;  // events ingested at the current tick
    std::uint64_t ices = 0;     // cumulative CEs ingested into the stream
    std::uint64_t ievents = 0;  // cumulative memory events ingested
    // Admission state.
    double tokens = 0.0;
    bool degraded = false;
    bool ever_degraded = false;
    std::uint32_t degraded_phase = 0;
    std::vector<Outcome> outcomes;

    Cursor(const sim::DimmTrace* d, features::OnlineExtractorState s)
        : dimm(d), stream(std::move(s)) {}
  };

  const AdmissionConfig& adm = config_.admission;
  ShardOutput out;
  std::uint32_t degrade_seq = 0;  // round-robin stride phases, see below
  std::vector<Cursor> cursors;
  cursors.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const sim::DimmTrace& dimm = dimms[i];
    if (dimm.ces.empty()) continue;  // the serial loop skips these outright
    cursors.emplace_back(&dimm, store_->open_stream(dimm));
    Cursor& cur = cursors.back();
    cur.pre_alarmed = alarms_->first_alarm(dimm.id).has_value();
    cur.tokens = adm.bucket_capacity;
  }
  if (cursors.empty()) return out;

  // Bounded ingest queue: (cursor, kind, event index) triples. A full queue
  // forces a drain into the extraction streams — counted as backpressure.
  struct QueuedEvent {
    std::uint32_t cursor = 0;
    std::uint32_t kind = 0;  // 0 = CE, 1 = memory event
    std::uint64_t index = 0;
  };
  std::vector<QueuedEvent> queue;
  queue.reserve(config_.queue_capacity);
  SimTime tick_t = start;
  const auto drain = [&] {
    for (const QueuedEvent& qe : queue) {
      Cursor& cur = cursors[qe.cursor];
      if (qe.kind == 0) {
        cur.stream.ingest_ce_at(tick_t, cur.dimm->ces[qe.index]);
      } else {
        cur.stream.ingest_event_at(tick_t, cur.dimm->events[qe.index]);
      }
    }
    queue.clear();
  };

  // Batches accumulate across ticks (and DIMMs) of a cohort and flush only
  // when full, so predict_batch almost always sees full SIMD-width blocks.
  // The cost is bounded speculation: a crossing score only latches its
  // cursor's stop flag at flush time, so a to-be-alarmed stream may feed and
  // score a few extra ticks first. The shard tail truncates each cursor's
  // outcomes after its first alarm and rolls ingest stats back to that
  // outcome's snapshot, so the replayed results (and every identity-checked
  // stat) match the serial loop that stops at the alarm tick.
  ml::Matrix batch;
  std::vector<std::uint32_t> batch_cursors;
  std::vector<SimTime> batch_times;
  std::vector<std::uint64_t> batch_snap_ces;
  std::vector<std::uint64_t> batch_snap_events;
  batch_cursors.reserve(config_.batch_rows);
  batch_times.reserve(config_.batch_rows);
  batch_snap_ces.reserve(config_.batch_rows);
  batch_snap_events.reserve(config_.batch_rows);
  std::vector<float> scratch;
  const auto flush = [&] {
    if (batch.rows() == 0) return;
    const std::vector<double> scores = model_->predict_batch(batch);
    ++out.batches;
    for (std::size_t r = 0; r < scores.size(); ++r) {
      Cursor& cur = cursors[batch_cursors[r]];
      const bool alarmed = crossing(scores[r]);
      cur.outcomes.push_back({batch_times[r], scores[r], alarmed,
                              batch_snap_ces[r], batch_snap_events[r]});
      if (alarmed) cur.alarm_latched = true;
    }
    batch.clear_rows();
    batch_cursors.clear();
    batch_times.clear();
    batch_snap_ces.clear();
    batch_snap_events.clear();
  };

  // Cache-blocked sweep: cursors advance through the tick range in cohorts
  // of kCohortStreams, tick-major only within a cohort. A flat tick-major
  // sweep over the whole shard touches every stream's extraction state
  // every tick (nothing stays cache-resident and serving runs slower than
  // the DIMM-major serial loop it batches for); a cohort's states fit in
  // cache across its whole tick range while cross-DIMM batches still fill.
  // Outcome replay order is per-cursor and independent of this loop order,
  // so the byte-identity contract is untouched.
  for (std::size_t cohort = 0; cohort < cursors.size();
       cohort += kCohortStreams) {
    const auto cbegin = static_cast<std::uint32_t>(cohort);
    const auto cend = static_cast<std::uint32_t>(
        std::min(cohort + kCohortStreams, cursors.size()));
  for (SimTime t = start; t <= end; t += cadence) {
    tick_t = t;
    const std::uint64_t t0 = config_.now_ns ? config_.now_ns() : 0;
    if (cohort == 0) ++out.ticks;
    std::size_t live = 0;
    std::uint64_t fed_total = 0;

    // ---- Feed pass: route due telemetry through the bounded queue. ----
    for (std::uint32_t ci = cbegin; ci < cend; ++ci) {
      Cursor& cur = cursors[ci];
      if (cur.stopped) continue;
      const sim::DimmTrace& dimm = *cur.dimm;
      if (dimm.ue && t >= dimm.ue->time) {  // the DIMM already failed
        cur.stopped = true;
        continue;
      }
      ++live;
      std::uint64_t fed = 0;
      while (cur.next_ce < dimm.ces.size() &&
             dimm.ces[cur.next_ce].time <= t) {
        if (queue.size() == config_.queue_capacity) {
          ++out.queue_stalls;
          drain();
        }
        queue.push_back({ci, 0, cur.next_ce});
        ++cur.next_ce;
        ++fed;
        ++cur.ices;
      }
      while (cur.next_event < dimm.events.size() &&
             dimm.events[cur.next_event].time <= t) {
        if (queue.size() == config_.queue_capacity) {
          ++out.queue_stalls;
          drain();
        }
        queue.push_back({ci, 1, cur.next_event});
        ++cur.next_event;
        ++fed;
        ++cur.ievents;
      }
      cur.fed = fed > 0;
      fed_total += fed;
      if (adm.enabled) {
        cur.tokens =
            std::min(adm.bucket_capacity, cur.tokens + adm.tokens_per_tick);
        if (static_cast<double>(fed) > cur.tokens && !cur.degraded) {
          cur.degraded = true;
          // Round-robin stride phases in degrade order so co-degraded storm
          // DIMMs score on different ticks: any fixed function of the cursor
          // index (say ci % stride) can alias with a periodic storm layout,
          // piling every degraded DIMM onto the same stride tick — then the
          // stride-th tick pays for all of them at once and the latency
          // tail never improves.
          cur.degraded_phase =
              degrade_seq++ % static_cast<std::uint32_t>(adm.degraded_stride);
          if (!cur.ever_degraded) {
            cur.ever_degraded = true;
            ++out.degraded_dimms;
          }
        }
        cur.tokens = std::max(0.0, cur.tokens - static_cast<double>(fed));
        if (cur.degraded && cur.tokens >= adm.bucket_capacity * 0.5) {
          cur.degraded = false;
        }
      }
    }
    out.peak_queue_depth =
        std::max<std::uint64_t>(out.peak_queue_depth, queue.size());
    drain();
    const bool overloaded =
        adm.enabled && fed_total > adm.shard_overload_events;
    if (overloaded) ++out.overload_ticks;

    // ---- Score pass: batch due DIMMs into cross-tenant blocks. ----
    for (std::uint32_t ci = cbegin; ci < cend; ++ci) {
      Cursor& cur = cursors[ci];
      if (cur.stopped) continue;
      if (adm.enabled && cur.degraded) {
        const bool stride_tick =
            cur.degraded_phase %
                static_cast<std::uint32_t>(adm.degraded_stride) ==
            0;
        ++cur.degraded_phase;
        if (!stride_tick || overloaded) {
          ++out.shed_scores;
          continue;
        }
      }
      // Exact idle skip: an untouched stream with an empty window scores
      // empty at any later tick, and features_at would be a pure no-op.
      if (!cur.fed && cur.stream.window_ces() == 0 && !cur.stream.has_pending()) {
        continue;
      }
      cur.stream.features_at(t, scratch);
      if (scratch.empty()) continue;  // no CE in the observation window
      batch.push_row(scratch);
      batch_cursors.push_back(ci);
      batch_times.push_back(t);
      batch_snap_ces.push_back(cur.ices);
      batch_snap_events.push_back(cur.ievents);
      if (batch.rows() == config_.batch_rows) flush();
    }

    // ---- Stop conditions, exactly the serial break rules: a DIMM stops
    // after the tick where its first alarm exists (raised this run or
    // pre-existing). ----
    for (std::uint32_t ci = cbegin; ci < cend; ++ci) {
      Cursor& cur = cursors[ci];
      if (cur.pre_alarmed || cur.alarm_latched) cur.stopped = true;
    }
    if (config_.now_ns) out.tick_latencies_ns.push_back(config_.now_ns() - t0);
    if (live == 0) break;  // every cohort stream failed or alarmed
  }
  flush();  // speculation never crosses a cohort boundary
  }

  // Shard tail: resolve speculation. A cursor's outcomes after its first
  // alarm never happened in the serial loop (it breaks after the alarm
  // tick), so drop them and roll the ingest stats back to the alarm
  // outcome's snapshot.
  out.dimm_ids.reserve(cursors.size());
  out.outcomes.reserve(cursors.size());
  for (Cursor& cur : cursors) {
    std::uint64_t kept_ces = cur.ices;
    std::uint64_t kept_events = cur.ievents;
    for (std::size_t k = 0; k < cur.outcomes.size(); ++k) {
      if (!cur.outcomes[k].alarmed) continue;
      kept_ces = cur.outcomes[k].ingested_ces;
      kept_events = cur.outcomes[k].ingested_events;
      cur.outcomes.resize(k + 1);
      break;
    }
    out.ingested_ces += kept_ces;
    out.ingested_events += kept_events;
    out.dimm_ids.push_back(cur.dimm->id);
    out.outcomes.push_back(std::move(cur.outcomes));
  }
  return out;
}

void ServingEngine::replay(const ShardOutput& output, ServingStats& stats) {
  for (std::size_t i = 0; i < output.dimm_ids.size(); ++i) {
    const dram::DimmId dimm = output.dimm_ids[i];
    for (const Outcome& outcome : output.outcomes[i]) {
      ++stats.scored;
      stats.score_hash =
          fold_score(stats.score_hash, dimm, outcome.time, outcome.score);
      // outcome.alarmed was crossing(score) in serve_shard.
      if (record_outcome(dimm, outcome.time, outcome.score)) ++stats.alarms;
    }
  }
}

void ServingEngine::finish(std::vector<ShardOutput>& outputs,
                           ServingStats& stats) {
  for (ShardOutput& out : outputs) {
    stats.dimms += out.dimm_ids.size();
    stats.ticks += out.ticks;
    stats.ingested_ces += out.ingested_ces;
    stats.ingested_events += out.ingested_events;
    stats.batches += out.batches;
    stats.peak_queue_depth =
        std::max(stats.peak_queue_depth, out.peak_queue_depth);
    stats.queue_stalls += out.queue_stalls;
    stats.shed_scores += out.shed_scores;
    stats.degraded_dimms += out.degraded_dimms;
    stats.overload_ticks += out.overload_ticks;
    stats.tick_latencies_ns.insert(stats.tick_latencies_ns.end(),
                                   out.tick_latencies_ns.begin(),
                                   out.tick_latencies_ns.end());
  }
  stats.alarm_hash = fold_alarms(*alarms_);
  if (config_.admission.enabled) {
    monitoring_->record_load_shedding(stats.shed_scores, stats.degraded_dimms,
                                      stats.overload_ticks,
                                      stats.queue_stalls);
  }
}

ServingStats ServingEngine::run_over(const sim::FleetTrace& fleet,
                                     SimTime start, SimTime end,
                                     SimDuration cadence) {
  ServingStats stats;
  const std::size_t n = fleet.dimms.size();
  if (n == 0) {
    stats.alarm_hash = fold_alarms(*alarms_);
    return stats;
  }
  const std::size_t shards = std::max<std::size_t>(
      1, std::min<std::size_t>(config_.shards == 0 ? 1 : config_.shards, n));
  std::vector<ShardOutput> outputs(shards);
  {
    ThreadPool::ScopedLimit limit(config_.num_threads);
    ThreadPool::global().parallel_for(
        shards,
        [&](std::size_t s) {
          const std::size_t begin = s * n / shards;
          const std::size_t shard_end = (s + 1) * n / shards;
          outputs[s] = serve_shard(fleet.dimms.data() + begin,
                                   shard_end - begin, start, end, cadence);
        },
        1);
  }
  for (ShardOutput& out : outputs) replay(out, stats);
  finish(outputs, stats);
  return stats;
}

ServingStats ServingEngine::run_over_store(
    const std::vector<std::string>& shard_files, SimTime start, SimTime end,
    SimDuration cadence) {
  ServingStats stats;
  if (shard_files.empty()) {
    stats.alarm_hash = fold_alarms(*alarms_);
    return stats;
  }
  std::vector<ShardOutput> outputs(shard_files.size());
  {
    ThreadPool::ScopedLimit limit(config_.num_threads);
    ThreadPool::global().parallel_for(
        shard_files.size(),
        [&](std::size_t s) {
          // One serving shard per store file; the decoded traces live only
          // for the duration of this task, so resident trace memory stays
          // bounded by shard size × active threads.
          const sim::TraceReader reader(shard_files[s]);
          std::vector<sim::DimmTrace> dimms;
          dimms.reserve(reader.dimm_count());
          for (std::size_t i = 0; i < reader.dimm_count(); ++i) {
            dimms.push_back(reader.read_dimm(i));
          }
          outputs[s] =
              serve_shard(dimms.data(), dimms.size(), start, end, cadence);
        },
        1);
  }
  for (ShardOutput& out : outputs) replay(out, stats);
  finish(outputs, stats);
  return stats;
}

ServingStats ServingEngine::run_reference(const sim::FleetTrace& fleet,
                                          SimTime start, SimTime end,
                                          SimDuration cadence) {
  // The pre-batching serving loop, DIMM-major with one single-row predict
  // per due tick. This is the oracle the sharded engine must match byte for
  // byte (admission off): same side-effect order on AlarmSystem/Monitoring,
  // same hashes.
  ServingStats stats;
  std::vector<float> features;
  for (const sim::DimmTrace& dimm : fleet.dimms) {
    if (dimm.ces.empty()) continue;
    ++stats.dimms;
    features::OnlineExtractorState stream = store_->open_stream(dimm);
    std::size_t next_ce = 0;
    std::size_t next_event = 0;
    for (SimTime t = start; t <= end; t += cadence) {
      if (dimm.ue && t >= dimm.ue->time) break;  // the DIMM already failed
      ++stats.ticks;
      while (next_ce < dimm.ces.size() && dimm.ces[next_ce].time <= t) {
        stream.observe_ce(dimm.ces[next_ce++]);
        ++stats.ingested_ces;
      }
      while (next_event < dimm.events.size() &&
             dimm.events[next_event].time <= t) {
        stream.observe_event(dimm.events[next_event++]);
        ++stats.ingested_events;
      }
      stream.features_at(t, features);
      if (!features.empty()) {
        const double score = model_->predict(features);
        ++stats.scored;
        stats.score_hash = fold_score(stats.score_hash, dimm.id, t, score);
        if (record_outcome(dimm.id, t, score)) ++stats.alarms;
      }
      if (alarms_->first_alarm(dimm.id)) break;  // mitigation in flight
    }
  }
  stats.alarm_hash = fold_alarms(*alarms_);
  return stats;
}

}  // namespace memfp::mlops
