// Shared pieces of the end-to-end benchmark harness: the monotonic clock,
// span tracing, the median, and the Workload interface the four workloads
// implement.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

namespace memfp::e2e {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the whole process (all threads), in seconds.
inline double cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Median of a sample (mean of the two middle values for even sizes); 0 for
/// an empty sample.
inline double median(std::vector<double> sample) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const std::size_t n = sample.size();
  return n % 2 == 1 ? sample[n / 2] : 0.5 * (sample[n / 2 - 1] + sample[n / 2]);
}

/// Fixed, benchmark-owned CPU and memory work that measures how fast the
/// host runs right now. On a shared host the same pass can take 10-35%
/// longer from one minute to the next, with CPU time rising alongside wall
/// time, so the harness times the probe just before and after every set-up
/// and pass and states those timings at the probe's nominal speed. The probe
/// never calls into memfp, so no change to the system moves it.
class SpeedProbe {
 public:
  /// Wall time of one probe on the 4-CPU host the benchmark was sized on,
  /// at 4 threads; a host running at this speed has speed factor 1.
  static constexpr double kNominalSeconds = 0.25;

  explicit SpeedProbe(int threads) : threads_(threads) {}

  /// Runs the probe on the benchmark's threads; returns its wall time.
  double run() const;

 private:
  int threads_;
};

/// One timed call into a layer. `parent` is the id of the enclosing span,
/// or -1 for a root.
struct SpanRecord {
  int id = 0;
  int parent = -1;
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Span recorder for the traced run. Spans are opened and closed on the
/// harness's main thread only (a span wraps a whole parallel section), kept
/// in memory, and written out once at exit.
class Tracer {
 public:
  int open(const char* name) {
    SpanRecord span;
    span.id = static_cast<int>(spans_.size());
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.name = name;
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time in seconds per span name: each span's duration minus the
  /// part its direct children cover (children nest inside their parent).
  std::vector<std::pair<std::string, double>> self_seconds() const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer makes it a no-op, so set-up code runs the same
/// calls traced and untraced.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->open(name) : -1) {}
  ~Span() {
    if (tracer_) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// A named number with its unit, in output order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one pass of a workload did.
struct PassOutput {
  /// Attempted operations (planned DIMMs, scoring opportunities, cells).
  std::uint64_t ops = 0;
  /// Telemetry events the pass consumed.
  std::uint64_t events = 0;
  /// Output hashes; every pass must reproduce those of the first pass over
  /// the same input.
  std::vector<std::uint64_t> hashes;
  /// Serving tick latencies in ms (serving workloads only).
  std::vector<double> tick_ms;
  /// Deterministic workload-specific outputs (shed scores, F1, codec size);
  /// reported from the first pass.
  std::vector<Metric> outputs;
  /// Per-layer counters (serving, campaign); reported in the traced run.
  std::vector<Metric> counters;
};

struct WorkloadOptions {
  std::uint64_t seed = 1234;
  double scale = 1.0;
  int threads = 4;
  std::string work_dir;
};

/// One benchmark workload. setup() may run several times (each call
/// replaces the previous state) and prepares inputs() independent inputs;
/// pass(i) drives the system through its public entry points over input i;
/// traced_pass() repeats the work of input 0 as direct calls into each
/// layer, wrapped in spans, adds the layers' work counts to `counters`, and
/// reports whether its outputs are consistent with `first` (the first
/// untraced pass over input 0).
class Workload {
 public:
  virtual ~Workload() = default;
  virtual int warmup_passes() const = 0;
  /// Timed passes cycle through the inputs in whole rounds, so a run's
  /// median spans all of them.
  virtual std::size_t inputs() const { return 1; }
  virtual void setup(Tracer* tracer) = 0;
  virtual PassOutput pass(std::size_t input) = 0;
  virtual bool traced_pass(Tracer& tracer, const PassOutput& first,
                           std::vector<Metric>& counters,
                           std::string& detail) = 0;
  /// Untimed correctness checks against the system's reference paths;
  /// appends a line per failed check to `detail`.
  virtual bool verify(std::string& detail) = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options);

}  // namespace memfp::e2e
