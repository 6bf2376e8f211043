// memfp_e2e: the end-to-end benchmark harness. One process runs one
// workload (see workloads.cc and README.md):
//
//   memfp_e2e --workload NAME [--seed N] [--seconds S] [--scale X]
//             [--work-dir DIR] [--report FILE] [--spans FILE] [--trace]
//             [--verify] [--verify-failed]
//
// Timed mode sets the workload up kSetups times, runs its warm-up passes,
// then timed passes for about --seconds of pass time, and prints the
// end-to-end metrics; each set-up and pass is bracketed by a SpeedProbe run,
// and its timing is stated at the probe's nominal host speed (see
// harness.h). --trace runs the untraced passes, then one traced
// pass, and prints the per-layer metrics instead. --verify runs the untimed
// correctness checks. Timed and traced runs print each metric as
// "name value unit" and, as the last line, one JSON result object; --report
// writes a fuller JSON report (context, samples, workload outputs). Every
// run uses min(4, online CPUs) threads.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#if defined(__GLIBC__)  // defined by the C library headers above
#include <malloc.h>
#endif

#include "../bench_common.h"
#include "common/json.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "harness.h"

namespace memfp::e2e {

std::vector<std::pair<std::string, double>> Tracer::self_seconds() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (const SpanRecord& span : spans_) {
    const std::uint64_t total = span.end_ns - span.start_ns;
    const std::uint64_t children = child_ns[static_cast<std::size_t>(span.id)];
    self[span.name] +=
        static_cast<double>(total > children ? total - children : 0) / 1e9;
  }
  return {self.begin(), self.end()};
}

namespace {

// Set-ups timed per run; setup_s is their median.
constexpr int kSetups = 3;

double peak_rss_mb() {
  return static_cast<double>(bench::peak_rss_bytes()) / (1024.0 * 1024.0);
}

struct Options {
  std::string workload;
  WorkloadOptions run;
  double seconds = 10.0;
  bool trace = false;
  bool verify = false;
  bool verify_failed = false;
  std::string report;
  std::string spans;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "memfp_e2e: %s\nusage: memfp_e2e --workload NAME [--seed N] "
               "[--seconds S] [--scale X] [--work-dir DIR] [--report FILE] "
               "[--spans FILE] [--trace] [--verify] [--verify-failed]\n",
               message);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  options.run.threads = std::clamp(bench::num_cpus_online(), 1, 4);
  options.run.work_dir = ".bench_build/e2e/work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.run.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value().c_str());
    } else if (arg == "--scale") {
      options.run.scale = std::atof(value().c_str());
    } else if (arg == "--work-dir") {
      options.run.work_dir = value();
    } else if (arg == "--report") {
      options.report = value();
    } else if (arg == "--spans") {
      options.spans = value();
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--verify") {
      options.verify = true;
    } else if (arg == "--verify-failed") {
      options.verify_failed = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.run.scale <= 0.0 || options.seconds < 0.0) {
    usage("--scale must be positive and --seconds not negative");
  }
  return options;
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

Json metrics_json(const std::vector<Metric>& metrics) {
  Json out = Json::object();
  for (const Metric& m : metrics) {
    Json metric = Json::object();
    metric.set("value", m.value);
    metric.set("unit", m.unit);
    out.set(m.name, std::move(metric));
  }
  return out;
}

Json array_json(const std::vector<double>& values) {
  Json out = Json::array();
  for (const double value : values) out.push_back(value);
  return out;
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

Json context_json(const Options& options) {
  const int cpus = bench::num_cpus_online();
  const char* commit = std::getenv("MEMFP_E2E_COMMIT");
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  Json out = Json::object();
  out.set("num_cpus", cpus);
  out.set("threads", options.run.threads);
  out.set("simd", simd::level_name(simd::active_level()));
  out.set("compiler", kCompiler);
  out.set("build_type", MEMFP_E2E_BUILD_TYPE);
  out.set("optimized", optimized);
  out.set("sanitize", MEMFP_E2E_SANITIZE);
  out.set("git_commit", commit != nullptr ? commit : "unknown");
  if (cpus < 4) {
    out.set("note", "fewer than 4 online CPUs: not comparable with a 4-CPU "
                    "host, and 4-thread figures taken here would measure "
                    "work sharing, not parallel speedup");
  }
  return out;
}

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // the result line
  std::vector<Metric> outputs;  // workload outputs (report only)
  /// Every measurement behind a reported median, one per pass or set-up
  /// (report only), so its min, max and count can be read back.
  Json samples = Json::object();
  std::string detail;
};

/// Starts a pass's memory reading from a clean slate: hands the heap pages
/// earlier passes freed back to the kernel, then restarts the kernel's
/// peak-RSS counter at the current RSS, so that the next VmHWM reading is
/// the pass's own peak over what is live when it starts. Without the trim
/// the reading would also hold whatever the allocator kept from earlier
/// passes, which varies from run to run (serve-store's pass peaks crept
/// from 560 to 820 MB). Both steps need glibc and Linux 4.0 or later;
/// elsewhere VmHWM stays the peak since the process started.
void reset_peak_rss() {
#if defined(__GLIBC__)
  ::malloc_trim(0);
#endif
  if (std::FILE* refs = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", refs);
    std::fclose(refs);
  }
}

/// Speed factor of an interval bracketed by probe runs that took `before`
/// and `after` seconds: the probe's nominal time over its mean time then.
/// A raw timing times the factor is that timing at the nominal host speed.
double speed_factor(double before, double after) {
  return SpeedProbe::kNominalSeconds / (0.5 * (before + after));
}

/// What the timed passes measured, one entry per pass.
struct PassTimes {
  std::vector<double> wall;   // raw wall time, s
  std::vector<double> cpu;    // process CPU time, s
  std::vector<double> rss;    // the pass's own peak RSS, MB
  std::vector<double> speed;  // speed factor (timed runs only)
};

/// Runs rounds of timed passes, one pass per input, until they add up to
/// about `seconds` (at least two rounds), recording each pass's wall time,
/// CPU time and peak RSS and, given a probe, its speed factor from the probe
/// runs before and after it. Then checks every pass's hashes against those
/// of the first pass over the same input.
std::vector<PassOutput> timed_passes(Workload& workload, double seconds,
                                     const SpeedProbe* probe, PassTimes& times,
                                     Outcome& outcome) {
  const std::size_t inputs = workload.inputs();
  std::vector<PassOutput> passes;
  double done = 0.0;
  double before = probe != nullptr ? probe->run() : 0.0;
  while (passes.size() < 2 * inputs ||
         done + static_cast<double>(inputs) * median(times.wall) <= seconds) {
    for (std::size_t input = 0; input < inputs; ++input) {
      reset_peak_rss();
      const std::uint64_t t0 = now_ns();
      const double cpu0 = cpu_seconds();
      passes.push_back(workload.pass(input));
      times.wall.push_back(seconds_since(t0));
      times.cpu.push_back(cpu_seconds() - cpu0);
      times.rss.push_back(peak_rss_mb());
      done += times.wall.back();
      if (probe != nullptr) {
        const double after = probe->run();
        times.speed.push_back(speed_factor(before, after));
        before = after;
      }
    }
  }
  for (std::size_t i = 0; i < passes.size(); ++i) {
    outcome.attempted += passes[i].ops;
    const std::size_t first = i % inputs;
    if (passes[i].hashes != passes[first].hashes) {
      outcome.failed += passes[i].ops;
      outcome.detail += "FAIL: pass " + std::to_string(i + 1) +
                        " output hashes differ from pass " +
                        std::to_string(first + 1) + "\n";
    }
  }
  return passes;
}

/// Per pass p50/p99 of the serving tick latencies, times the pass's speed
/// factor when there is one; each is reported as the median over passes.
void tick_percentiles(const std::vector<PassOutput>& passes,
                      const std::vector<double>& speed,
                      std::vector<double>& p50, std::vector<double>& p99,
                      std::vector<double>& counts) {
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassOutput& pass = passes[i];
    if (pass.tick_ms.empty()) continue;
    const double factor = i < speed.size() ? speed[i] : 1.0;
    p50.push_back(bench::percentile(pass.tick_ms, 50.0) * factor);
    p99.push_back(bench::percentile(pass.tick_ms, 99.0) * factor);
    counts.push_back(static_cast<double>(pass.tick_ms.size()));
  }
}

/// values[i] * factors[i].
std::vector<double> scaled(const std::vector<double>& values,
                           const std::vector<double>& factors) {
  std::vector<double> out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    out.push_back(values[i] * factors[i]);
  }
  return out;
}

Outcome run_timed(Workload& workload, const Options& options) {
  Outcome outcome;
  const SpeedProbe probe(options.run.threads);
  // Every set-up replaces the last one's state; all of them run before the
  // warm-up, so every timed pass runs warm on the final set-up.
  std::vector<double> setup_raw;
  std::vector<double> setup_speed;
  double before = probe.run();
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t t0 = now_ns();
    workload.setup(nullptr);
    setup_raw.push_back(seconds_since(t0));
    const double after = probe.run();
    setup_speed.push_back(speed_factor(before, after));
    before = after;
  }
  for (int i = 0; i < workload.warmup_passes(); ++i) workload.pass(0);

  PassTimes times;
  const std::vector<PassOutput> passes =
      timed_passes(workload, options.seconds, &probe, times, outcome);
  const std::vector<double> wall = scaled(times.wall, times.speed);
  std::vector<double> events_per_s;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    events_per_s.push_back(static_cast<double>(passes[i].events) / wall[i]);
  }
  std::vector<double> speed = setup_speed;
  speed.insert(speed.end(), times.speed.begin(), times.speed.end());
  // Peak RSS is a pass's own peak, the median over passes, not VmHWM at
  // exit, which would depend on allocator history and on how many passes
  // fit in --seconds. The traced run reports the set-up's peak as
  // proc.rss_after_setup_mb and any growth over passes as
  // proc.rss_growth_mb.
  outcome.metrics = {
      {"setup_s", median(scaled(setup_raw, setup_speed)), "s"},
      {"wall_s", median(wall), "s"},
      {"events_per_s", median(events_per_s), "events/s"},
      {"peak_rss_mb", median(times.rss), "MB"},
  };
  outcome.outputs = {
      {"raw_setup_s", median(setup_raw), "s"},
      {"raw_wall_s", median(times.wall), "s"},
      {"host_speed", median(speed), "factor"},
  };
  outcome.samples.set("setup_s", array_json(setup_raw));
  outcome.samples.set("setup_speed", array_json(setup_speed));
  outcome.samples.set("wall_s", array_json(times.wall));
  outcome.samples.set("pass_speed", array_json(times.speed));
  outcome.samples.set("cpu_s", array_json(times.cpu));
  outcome.samples.set("peak_rss_mb", array_json(times.rss));

  std::vector<double> p50, p99, counts;
  tick_percentiles(passes, times.speed, p50, p99, counts);
  if (!p50.empty()) {
    outcome.outputs.push_back({"tick_p50_ms", median(p50), "ms"});
    outcome.outputs.push_back({"tick_p99_ms", median(p99), "ms"});
    outcome.samples.set("tick_p50_ms", array_json(p50));
    outcome.samples.set("tick_p99_ms", array_json(p99));
    outcome.samples.set("tick_samples", array_json(counts));
  }
  for (const Metric& m : passes.front().outputs) outcome.outputs.push_back(m);
  return outcome;
}

/// The per-layer metrics every workload reports in the traced run, in
/// BENCHMARK.json order; a layer the workload never calls reads 0.
const std::vector<std::pair<const char*, const char*>>& layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> metrics{
      {"trace.overhead_share", "share"},
      {"trace.coverage", "share"},
      {"sim.simulate_s", "s"},
      {"sim.events", "count"},
      {"sim.store.encode_s", "s"},
      {"sim.store.bytes_per_event", "B/event"},
      {"sim.store.decode_s", "s"},
      {"features.extract_s", "s"},
      {"features.samples", "count"},
      {"features.stream_s", "s"},
      {"features.stream_rows", "count"},
      {"ml.predict_s", "s"},
      {"ml.rows_scored", "count"},
      {"ml.fit_gbdt_s", "s"},
      {"ml.fit_rf_s", "s"},
      {"baseline.risky_ce_s", "s"},
      {"core.driver_s", "s"},
      {"core.campaign.simulate_runs", "count"},
      {"core.campaign.extract_runs", "count"},
      {"core.campaign.train_runs", "count"},
      {"core.campaign.score_runs", "count"},
      {"core.campaign.policy_sweeps", "count"},
      {"core.stage_cache.hit_ratio", "share"},
      {"core.f1_mean", "F1"},
      {"mlops.serving.ticks", "count"},
      {"mlops.serving.batches", "count"},
      {"mlops.serving.rows_per_batch", "rows/batch"},
      {"mlops.serving.peak_queue_depth", "count"},
      {"mlops.serving.queue_stalls", "count"},
      {"mlops.serving.shed_scores", "count"},
      {"mlops.serving.degraded_dimms", "count"},
      {"mlops.serving.overload_ticks", "count"},
      {"mlops.serving.tick_p50_ms", "ms"},
      {"mlops.serving.tick_p99_ms", "ms"},
      {"proc.rss_after_setup_mb", "MB"},
      {"proc.rss_growth_mb", "MB"},
  };
  return metrics;
}

Outcome run_traced(Workload& workload, const Options& options,
                   Tracer& tracer) {
  Outcome outcome;
  std::map<std::string, double> values;
  {
    Span span(&tracer, "setup");
    workload.setup(&tracer);
  }
  values["proc.rss_after_setup_mb"] = peak_rss_mb();
  for (int i = 0; i < workload.warmup_passes(); ++i) workload.pass(0);

  // Layer timings are raw: the traced run compares layers within one pass.
  PassTimes times;
  const std::vector<PassOutput> passes =
      timed_passes(workload, options.seconds, nullptr, times, outcome);
  // The traced pass repeats input 0, so it is set against input 0's passes:
  // every inputs()-th pass, as the passes run in whole rounds.
  const std::size_t inputs = workload.inputs();
  std::vector<double> input0_wall;
  for (std::size_t i = 0; i < times.wall.size(); i += inputs) {
    input0_wall.push_back(times.wall[i]);
  }
  values["proc.rss_growth_mb"] =
      times.rss[times.rss.size() - inputs] - times.rss.front();

  std::vector<Metric> counters = passes.front().counters;
  const std::uint64_t t0 = now_ns();
  bool consistent = false;
  {
    Span span(&tracer, "pass");
    consistent =
        workload.traced_pass(tracer, passes.front(), counters, outcome.detail);
  }
  const double traced_wall = seconds_since(t0);
  if (!consistent) {
    outcome.failed = outcome.attempted;
    outcome.detail += "FAIL: traced pass is inconsistent with the timed pass\n";
  }

  // Coverage: the share of the traced wall time (set-up + pass, the root
  // spans) that layer spans cover.
  double layers = 0.0;
  for (const auto& [name, self] : tracer.self_seconds()) {
    if (name == "setup" || name == "pass") continue;
    layers += self;
    values[name + "_s"] += self;
  }
  double roots = 0.0;
  for (const SpanRecord& span : tracer.spans()) {
    if (span.parent < 0) {
      roots += static_cast<double>(span.end_ns - span.start_ns) / 1e9;
    }
  }
  values["trace.coverage"] = roots > 0.0 ? layers / roots : 0.0;
  values["trace.overhead_share"] = traced_wall / median(input0_wall) - 1.0;
  for (const Metric& m : counters) values[m.name] = m.value;

  std::vector<double> p50, p99, counts;
  tick_percentiles(passes, times.speed, p50, p99, counts);
  values["mlops.serving.tick_p50_ms"] = median(p50);
  values["mlops.serving.tick_p99_ms"] = median(p99);
  outcome.samples.set("wall_s", array_json(times.wall));
  outcome.samples.set("traced_wall_s", traced_wall);

  for (const auto& [name, unit] : layer_metrics()) {
    outcome.metrics.push_back({name, values[name], unit});
  }
  return outcome;
}

Json spans_json(const Tracer& tracer) {
  const std::uint64_t origin =
      tracer.spans().empty() ? 0 : tracer.spans().front().start_ns;
  Json out = Json::array();
  for (const SpanRecord& span : tracer.spans()) {
    Json record = Json::object();
    record.set("id", span.id);
    record.set("parent", span.parent);
    record.set("name", span.name);
    record.set("start_ns", static_cast<std::size_t>(span.start_ns - origin));
    record.set("end_ns", static_cast<std::size_t>(span.end_ns - origin));
    out.push_back(std::move(record));
  }
  return out;
}

bool write_file(const std::string& path, const std::string& text) {
  if (path.empty()) return true;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const bool ok = std::fputs(text.c_str(), out) >= 0;
  return std::fclose(out) == 0 && ok;
}

Json result_json(const Outcome& outcome) {
  Json out = Json::object();
  out.set("correct", outcome.correct);
  out.set("attempted", static_cast<std::size_t>(outcome.attempted));
  out.set("failed", static_cast<std::size_t>(outcome.failed));
  out.set("metrics", metrics_json(outcome.metrics));
  return out;
}

Json report_json(const Options& options, const Outcome& outcome) {
  Json out = result_json(outcome);
  out.set("workload", options.workload);
  out.set("mode", options.trace ? "trace" : "timed");
  out.set("seed", static_cast<std::size_t>(options.run.seed));
  out.set("seconds", options.seconds);
  out.set("scale", options.run.scale);
  out.set("context", context_json(options));
  out.set("outputs", metrics_json(outcome.outputs));
  out.set("samples", outcome.samples);
  return out;
}

}  // namespace
}  // namespace memfp::e2e

int main(int argc, char** argv) {
  using namespace memfp;
  using namespace memfp::e2e;
  const Options options = parse(argc, argv);
  std::unique_ptr<Workload> workload =
      make_workload(options.workload, options.run);
  if (workload == nullptr) {
    usage(("unknown workload '" + options.workload + "'").c_str());
  }
  ThreadPool::ScopedLimit limit(options.run.threads);
  std::filesystem::create_directories(options.run.work_dir);

  if (options.verify) {
    workload->setup(nullptr);
    std::string detail;
    const bool ok = workload->verify(detail);
    std::fputs(detail.c_str(), stderr);
    Json line = Json::object();
    line.set("workload", options.workload);
    line.set("verified", ok);
    std::printf("%s\n", line.dump().c_str());
    return ok ? 0 : 1;
  }

  Tracer tracer;
  Outcome outcome = options.trace ? run_traced(*workload, options, tracer)
                                  : run_timed(*workload, options);
  if (options.verify_failed) {
    outcome.failed = outcome.attempted;
    outcome.detail += "FAIL: verification failed for this seed\n";
  }
  outcome.correct = outcome.failed == 0;
  std::fputs(outcome.detail.c_str(), stderr);

  if (!write_file(options.report, report_json(options, outcome).dump(1)) ||
      (options.trace && !write_file(options.spans,
                                    spans_json(tracer).dump(1)))) {
    std::fprintf(stderr, "memfp_e2e: cannot write the report files\n");
    return 1;
  }
  for (const auto* group : {&outcome.metrics, &outcome.outputs}) {
    for (const Metric& m : *group) {
      std::printf("%s %s %s\n", m.name.c_str(), Json(m.value).dump().c_str(),
                  m.unit.c_str());
    }
  }
  std::printf("%s\n", result_json(outcome).dump().c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
