// Deterministic work-stealing thread pool.
//
// The fleet simulator, the forest/GBDT trainers and the per-DIMM scorer are
// all embarrassingly parallel, but the project's reproducibility contract
// ("same seed => same Table II numbers") must survive parallelisation. The
// pool therefore guarantees that `parallel_for` / `parallel_reduce` results
// depend only on (n, grain), never on the number of threads or on scheduling:
//
//   * every index writes to its own output slot (caller's responsibility),
//   * chunk boundaries are a pure function of n and grain,
//   * `parallel_reduce` folds chunk partials in ascending chunk order on the
//     calling thread,
//   * `parallel_for_ordered` hands each index to an in-order consumer on the
//     calling thread, so a serial step (a frame write, a hash fold) runs
//     alongside the section instead of after it,
//   * per-task randomness comes from `Rng::fork(index)`, which derives a
//     child stream from the parent state and the task index without
//     advancing the parent.
//
// Scheduling is classic work-stealing: each worker owns a deque (LIFO for
// its own tasks, FIFO for thieves), and parallel sections are executed by
// "runner" tasks that pull chunk indices from a shared atomic cursor, so an
// idle worker automatically steals whatever chunks remain. The calling
// thread always participates as a runner, which makes nested parallel
// sections deadlock-free: a worker that opens an inner section drains it
// itself even when every other worker is busy.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

namespace memfp {

class ThreadPool {
 public:
  /// Creates a pool that runs parallel sections with `threads` executors
  /// (the calling thread plus `threads - 1` workers). `threads <= 0` means
  /// `default_threads()`. `default_width` caps how many executors a section
  /// uses when no ScopedLimit is active (<= 0 means all of them); the global
  /// pool uses it to keep spare workers for explicit above-core-count
  /// requests without oversubscribing by default.
  explicit ThreadPool(int threads = 0, int default_width = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Maximum number of executors (including the calling thread).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// MEMFP_THREADS environment variable if set to a positive integer,
  /// otherwise std::thread::hardware_concurrency().
  static int default_threads();

  /// The process-wide pool, created on first use with default_threads().
  static ThreadPool& global();

  /// Process-wide cap on the width of parallel sections; 0 = uncapped.
  /// A cap of 1 makes every parallel section run inline on the calling
  /// thread (the serial fallback). Restores the previous cap on destruction.
  class ScopedLimit {
   public:
    /// `limit <= 0` leaves the current cap unchanged.
    explicit ScopedLimit(int limit);
    ~ScopedLimit();
    ScopedLimit(const ScopedLimit&) = delete;
    ScopedLimit& operator=(const ScopedLimit&) = delete;

   private:
    int previous_;
  };
  static int current_limit();

  /// Fire-and-forget task. Runs inline when the pool has no workers. The
  /// destructor drains all queued tasks before returning.
  void submit(std::function<void()> task);

  /// Calls body(i) for every i in [0, n). Blocks until all calls finished;
  /// rethrows the first exception a body threw. The iteration->chunk mapping
  /// depends only on n and grain (grain 0 = default_grain(n)), so any
  /// index-slotted output is identical for every thread count.
  template <typename Body>
  void parallel_for(std::size_t n, Body&& body, std::size_t grain = 0) {
    if (n == 0) return;
    const std::size_t g = grain > 0 ? grain : default_grain(n);
    const std::size_t chunks = (n + g - 1) / g;
    run_chunked(chunks, [&](std::size_t c) {
      const std::size_t begin = c * g;
      const std::size_t end = begin + g < n ? begin + g : n;
      for (std::size_t i = begin; i < end; ++i) body(i);
    });
  }

  /// Chunk-granular variant of `parallel_for`: calls body(begin, end) once
  /// per chunk instead of once per index. Chunk boundaries depend only on
  /// (n, grain), so index->chunk assignment is identical for every thread
  /// count; callers use this to reuse a scratch buffer across all indices of
  /// a chunk instead of allocating per index (e.g. the per-feature column
  /// gather in BinMapper).
  template <typename Body>
  void parallel_for_chunks(std::size_t n, Body&& body, std::size_t grain = 0) {
    if (n == 0) return;
    const std::size_t g = grain > 0 ? grain : default_grain(n);
    const std::size_t chunks = (n + g - 1) / g;
    run_chunked(chunks, [&](std::size_t c) {
      const std::size_t begin = c * g;
      const std::size_t end = begin + g < n ? begin + g : n;
      body(begin, end);
    });
  }

  /// Ordered consumer over a parallel section: calls body(i) for every i in
  /// [0, n) on the pool, one index per chunk, and consume(i) for every i in
  /// ascending order on the calling thread, each after body(i) has returned
  /// (its writes are visible to consume). The caller consumes the ready
  /// prefix between the indices it runs itself and drains the rest once the
  /// section ends, so an in-order serial step overlaps the parallel work. It
  /// adds no thread: at width 1 it is the serial loop body(i), consume(i).
  /// An exception from body or consume is rethrown once the section has
  /// ended (a body's first); no index past the failure is consumed.
  template <typename Body, typename Consume>
  void parallel_for_ordered(std::size_t n, Body&& body, Consume&& consume) {
    if (n == 0) return;
    // done[i] is stored (release) after body(i) returned and loaded
    // (acquire) by the consumer, which orders body writes before consume.
    const auto done = std::make_unique<std::atomic<bool>[]>(n);
    std::size_t next = 0;  // first index not yet consumed
    std::exception_ptr consume_error;
    const std::function<void()> drain = [&] {
      while (next < n && !consume_error &&
             done[next].load(std::memory_order_acquire)) {
        try {
          consume(next++);
        } catch (...) {
          consume_error = std::current_exception();
        }
      }
    };
    run_chunked(
        n,
        [&](std::size_t i) {
          body(i);
          done[i].store(true, std::memory_order_release);
        },
        &drain);
    drain();  // the section has ended: every index is done
    if (consume_error) std::rethrow_exception(consume_error);
  }

  /// Ordered map-reduce: map(begin, end) produces one partial per chunk and
  /// the partials are folded as acc = reduce(acc, partial) in ascending
  /// chunk order on the calling thread. Because chunking depends only on
  /// (n, grain), the result is bit-identical for every thread count — even
  /// for non-associative reductions (floating-point sums, concatenation).
  template <typename T, typename MapFn, typename ReduceFn>
  T parallel_reduce(std::size_t n, T init, MapFn&& map, ReduceFn&& reduce,
                    std::size_t grain = 0) {
    if (n == 0) return init;
    const std::size_t g = grain > 0 ? grain : default_grain(n);
    const std::size_t chunks = (n + g - 1) / g;
    std::vector<T> partials(chunks);
    run_chunked(chunks, [&](std::size_t c) {
      const std::size_t begin = c * g;
      const std::size_t end = begin + g < n ? begin + g : n;
      partials[c] = map(begin, end);
    });
    T acc = std::move(init);
    for (std::size_t c = 0; c < chunks; ++c) {
      acc = reduce(std::move(acc), std::move(partials[c]));
    }
    return acc;
  }

  /// Default chunk size: a pure function of n (NOT of the thread count, so
  /// reductions stay deterministic). Caps the chunk count at 64.
  static std::size_t default_grain(std::size_t n) {
    return n / 64 > 0 ? n / 64 + (n % 64 != 0) : 1;
  }

 private:
  struct Impl;
  struct WorkerQueue;

  /// Executes body(c) for every chunk c in [0, chunks): inline when the
  /// effective width is 1, otherwise via width-1 stealing runner tasks plus
  /// the calling thread. Rethrows the first exception. A non-null `between`
  /// runs on the calling thread only, after each chunk that thread executed;
  /// it must not throw.
  void run_chunked(std::size_t chunks,
                   const std::function<void(std::size_t)>& body,
                   const std::function<void()>* between = nullptr);

  void worker_loop(int index);
  bool try_run_one(int self_index);

  std::unique_ptr<Impl> impl_;
  int default_width_;
  std::vector<std::thread> workers_;
};

}  // namespace memfp
