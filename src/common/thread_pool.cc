#include "common/thread_pool.h"

#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>

#include "common/check.h"

namespace memfp {
namespace {

/// Which pool (if any) owns the current thread, and its worker index.
/// Lets submit() push nested tasks onto the owning worker's own deque.
thread_local ThreadPool* tls_pool = nullptr;
thread_local int tls_worker = -1;

std::atomic<int> g_width_limit{0};  // 0 = uncapped

}  // namespace

struct ThreadPool::WorkerQueue {
  std::mutex mutex;
  std::deque<std::function<void()>> tasks;
};

struct ThreadPool::Impl {
  std::vector<std::unique_ptr<WorkerQueue>> queues;
  std::mutex sleep_mutex;
  std::condition_variable sleep_cv;
  std::atomic<std::size_t> pending{0};
  std::atomic<bool> stopping{false};
  std::atomic<unsigned> next_victim{0};
};

ThreadPool::ThreadPool(int threads, int default_width)
    : impl_(std::make_unique<Impl>()) {
  const int want = threads > 0 ? threads : default_threads();
  // An absurd thread count is always a bug upstream (corrupt MEMFP_THREADS,
  // width confused with row count), and each worker costs a stack.
  MEMFP_CHECK_LE(want, 4096) << "implausible thread-pool size";
  default_width_ = default_width > 0 && default_width < want ? default_width
                                                             : want;
  const int workers = want > 1 ? want - 1 : 0;
  impl_->queues.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    impl_->queues.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // The lock pairs with the sleep predicate: a worker between its predicate
    // check and the actual wait would otherwise miss this notification.
    std::lock_guard<std::mutex> lock(impl_->sleep_mutex);
    impl_->stopping.store(true, std::memory_order_release);
  }
  impl_->sleep_cv.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Workers drain their queues before exiting, but tasks submitted from
  // outside after the last worker checked may remain: run them here.
  while (try_run_one(-1)) {
  }
}

int ThreadPool::default_threads() {
  if (const char* env = std::getenv("MEMFP_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool& ThreadPool::global() {
  // Keep at least 4 executors even on smaller machines so an explicit
  // above-core-count request (PipelineConfig::num_threads, ScopedLimit — the
  // 1-vs-4-thread determinism tests in particular) gets real threads; the
  // default section width stays at default_threads(), so nothing
  // oversubscribes unless explicitly asked to.
  static ThreadPool pool(default_threads() > 4 ? default_threads() : 4,
                         default_threads());
  return pool;
}

ThreadPool::ScopedLimit::ScopedLimit(int limit)
    : previous_(g_width_limit.load(std::memory_order_relaxed)) {
  if (limit > 0) g_width_limit.store(limit, std::memory_order_relaxed);
}

ThreadPool::ScopedLimit::~ScopedLimit() {
  g_width_limit.store(previous_, std::memory_order_relaxed);
}

int ThreadPool::current_limit() {
  return g_width_limit.load(std::memory_order_relaxed);
}

void ThreadPool::submit(std::function<void()> task) {
  MEMFP_CHECK(task != nullptr) << "submitted an empty task";
  if (impl_->queues.empty()) {
    task();  // no workers: degenerate single-thread pool runs inline
    return;
  }
  int target;
  if (tls_pool == this && tls_worker >= 0) {
    target = tls_worker;  // nested: keep the task hot on the owner's deque
  } else {
    target = static_cast<int>(
        impl_->next_victim.fetch_add(1, std::memory_order_relaxed) %
        impl_->queues.size());
  }
  {
    std::lock_guard<std::mutex> lock(impl_->queues[
        static_cast<std::size_t>(target)]->mutex);
    impl_->queues[static_cast<std::size_t>(target)]->tasks.push_back(
        std::move(task));
  }
  {
    // See ~ThreadPool: the empty critical section orders this increment
    // against a worker's predicate check so the wakeup cannot be lost.
    std::lock_guard<std::mutex> lock(impl_->sleep_mutex);
    impl_->pending.fetch_add(1, std::memory_order_release);
  }
  impl_->sleep_cv.notify_one();
}

bool ThreadPool::try_run_one(int self_index) {
  std::function<void()> task;
  const std::size_t queues = impl_->queues.size();
  // Own deque first (LIFO: newest task is cache-hot), then steal from the
  // other workers' deque fronts (FIFO: oldest task limits contention).
  if (self_index >= 0) {
    WorkerQueue& own = *impl_->queues[static_cast<std::size_t>(self_index)];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
    }
  }
  if (!task) {
    for (std::size_t step = 0; step < queues && !task; ++step) {
      const std::size_t victim =
          (static_cast<std::size_t>(self_index >= 0 ? self_index : 0) + 1 +
           step) %
          queues;
      if (self_index >= 0 && victim == static_cast<std::size_t>(self_index)) {
        continue;
      }
      WorkerQueue& other = *impl_->queues[victim];
      std::lock_guard<std::mutex> lock(other.mutex);
      if (!other.tasks.empty()) {
        task = std::move(other.tasks.front());
        other.tasks.pop_front();
      }
    }
  }
  if (!task) return false;
  impl_->pending.fetch_sub(1, std::memory_order_release);
  task();
  return true;
}

void ThreadPool::worker_loop(int index) {
  tls_pool = this;
  tls_worker = index;
  for (;;) {
    if (try_run_one(index)) continue;
    std::unique_lock<std::mutex> lock(impl_->sleep_mutex);
    impl_->sleep_cv.wait(lock, [this] {
      return impl_->pending.load(std::memory_order_acquire) > 0 ||
             impl_->stopping.load(std::memory_order_acquire);
    });
    if (impl_->stopping.load(std::memory_order_acquire) &&
        impl_->pending.load(std::memory_order_acquire) == 0) {
      break;
    }
  }
  tls_pool = nullptr;
  tls_worker = -1;
}

namespace {

/// Shared state of one parallel section. Heap-allocated and shared with the
/// runner tasks so a runner that starts after the section already finished
/// (its chunks all claimed by faster threads) still has valid state to read.
struct Section {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t chunks = 0;
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex mutex;  // guards error + completion signalling
  std::condition_variable done_cv;
  std::size_t completed = 0;

  /// Claims and executes chunks until the cursor is exhausted. The calling
  /// thread passes its `between` hook, runner tasks pass none.
  void run(const std::function<void()>* between = nullptr) {
    for (;;) {
      const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      if (!failed.load(std::memory_order_acquire)) {
        try {
          (*body)(c);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_release);
        }
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (++completed == chunks) done_cv.notify_all();
      }
      if (between != nullptr) (*between)();
    }
  }
};

}  // namespace

void ThreadPool::run_chunked(std::size_t chunks,
                             const std::function<void(std::size_t)>& body,
                             const std::function<void()>* between) {
  if (chunks == 0) return;
  const int limit = current_limit();
  int width = limit > 0 ? limit : default_width_;
  if (width > size()) width = size();
  if (static_cast<std::size_t>(width) > chunks) {
    width = static_cast<int>(chunks);
  }
  if (width <= 1 || workers_.empty()) {
    // Serial fallback: same chunk order as the ordered reduction, so
    // single-threaded results are bit-identical to the parallel ones.
    for (std::size_t c = 0; c < chunks; ++c) {
      body(c);
      if (between != nullptr) (*between)();
    }
    return;
  }

  auto section = std::make_shared<Section>();
  section->body = &body;
  section->chunks = chunks;
  for (int r = 0; r < width - 1; ++r) {
    submit([section] { section->run(); });
  }
  section->run(between);  // the calling thread is always one of the runners
  {
    std::unique_lock<std::mutex> lock(section->mutex);
    section->done_cv.wait(lock,
                          [&] { return section->completed == chunks; });
    if (section->error) std::rethrow_exception(section->error);
  }
  // `body` may now be destroyed; straggler runners only touch the cursor.
  section->body = nullptr;
}

}  // namespace memfp
