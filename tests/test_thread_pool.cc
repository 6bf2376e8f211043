#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace memfp {
namespace {

TEST(ThreadPool, StartStopIsClean) {
  for (int round = 0; round < 3; ++round) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
  }  // destructor joins without deadlock even when idle
}

TEST(ThreadPool, SubmittedTasksAllRunBeforeDestruction) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }  // destructor drains the queues
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, SingleThreadPoolRunsSubmitInline) {
  ThreadPool pool(1);
  int ran = 0;
  pool.submit([&ran] { ++ran; });
  EXPECT_EQ(ran, 1);  // no workers: synchronous
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                        std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(ThreadPool, ParallelForZeroIsANoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("task 37");
                        }),
      std::runtime_error);
  // The pool is still usable after a failed section.
  std::atomic<int> count{0};
  pool.parallel_for(50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ReduceMatchesSerialSum) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  const auto sum = pool.parallel_reduce(
      n, std::uint64_t{0},
      [](std::size_t begin, std::size_t end) {
        std::uint64_t s = 0;
        for (std::size_t i = begin; i < end; ++i) s += i;
        return s;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(ThreadPool, ReduceFoldsChunksInOrder) {
  // String concatenation is non-commutative: any out-of-order fold would
  // scramble the digits. Run many times to give racy schedules a chance.
  ThreadPool pool(4);
  std::string expected;
  for (int i = 0; i < 26; ++i) expected += static_cast<char>('a' + i);
  for (int round = 0; round < 20; ++round) {
    const std::string got = pool.parallel_reduce(
        26, std::string{},
        [](std::size_t begin, std::size_t end) {
          std::string s;
          for (std::size_t i = begin; i < end; ++i) {
            s += static_cast<char>('a' + static_cast<int>(i));
          }
          return s;
        },
        [](std::string a, std::string b) { return a + b; },
        /*grain=*/3);
    EXPECT_EQ(got, expected);
  }
}

TEST(ThreadPool, ReduceIsIdenticalAcrossThreadCounts) {
  // Same chunking (grain fixed) => bit-identical floating-point sums.
  ThreadPool pool(4);
  const std::size_t n = 4096;
  const auto run = [&](int limit) {
    ThreadPool::ScopedLimit cap(limit);
    return pool.parallel_reduce(
        n, 0.0,
        [](std::size_t begin, std::size_t end) {
          double s = 0.0;
          for (std::size_t i = begin; i < end; ++i) {
            s += 1.0 / (1.0 + static_cast<double>(i));
          }
          return s;
        },
        [](double a, double b) { return a + b; },
        /*grain=*/64);
  };
  const double serial = run(1);
  const double wide = run(4);
  EXPECT_EQ(serial, wide);  // EXPECT_EQ, not NEAR: bit-identical
}

TEST(ThreadPool, ScopedLimitOneForcesCallerThread) {
  ThreadPool pool(4);
  ThreadPool::ScopedLimit cap(1);
  std::set<std::thread::id> ids;
  std::mutex mutex;
  pool.parallel_for(100, [&](std::size_t) {
    std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
  });
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(ThreadPool, ScopedLimitRestoresOnExit) {
  EXPECT_EQ(ThreadPool::current_limit(), 0);
  {
    ThreadPool::ScopedLimit outer(2);
    EXPECT_EQ(ThreadPool::current_limit(), 2);
    {
      ThreadPool::ScopedLimit inner(1);
      EXPECT_EQ(ThreadPool::current_limit(), 1);
      ThreadPool::ScopedLimit noop(0);  // <= 0 leaves the cap unchanged
      EXPECT_EQ(ThreadPool::current_limit(), 1);
    }
    EXPECT_EQ(ThreadPool::current_limit(), 2);
  }
  EXPECT_EQ(ThreadPool::current_limit(), 0);
}

TEST(ThreadPool, NestedParallelSectionsDoNotDeadlock) {
  // Stress: every outer task opens an inner parallel section, so runner
  // tasks are submitted from worker threads (nested submission) while the
  // outer section is still draining.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for(
        8,
        [&](std::size_t) {
          pool.parallel_for(
              64, [&](std::size_t) { count.fetch_add(1); }, /*grain=*/4);
        },
        /*grain=*/1);
  }
  EXPECT_EQ(count.load(), 10 * 8 * 64);
}

TEST(ThreadPool, NestedSubmissionFromTasks) {
  ThreadPool pool(4);
  std::atomic<int> inner{0};
  pool.parallel_for(16, [&](std::size_t) {
    for (int i = 0; i < 8; ++i) {
      pool.submit([&inner] { inner.fetch_add(1); });
    }
  });
  // Fire-and-forget tasks are only guaranteed done once the pool drains.
  // Run a barriered section to flush, then destroy-free check via spin.
  while (inner.load() < 16 * 8) std::this_thread::yield();
  EXPECT_EQ(inner.load(), 16 * 8);
}

/// Runs one parallel_for_ordered section over n indices and checks the
/// contract: every body runs once, every index is consumed once, in
/// ascending order, on the calling thread, with its body's write visible.
void expect_ordered_contract(ThreadPool& pool, std::size_t n) {
  SCOPED_TRACE(testing::Message() << "n " << n);
  std::vector<std::atomic<int>> body_hits(n);
  for (auto& h : body_hits) h.store(0);
  std::vector<std::size_t> written(n, 0);  // plain writes: TSan checks order
  std::vector<std::size_t> consumed;
  bool off_caller = false;
  bool stale = false;
  const std::thread::id caller = std::this_thread::get_id();
  pool.parallel_for_ordered(
      n,
      [&](std::size_t i) {
        body_hits[i].fetch_add(1);
        written[i] = 3 * i + 1;
      },
      [&](std::size_t i) {
        off_caller |= std::this_thread::get_id() != caller;
        stale |= written[i] != 3 * i + 1;
        consumed.push_back(i);
      });
  EXPECT_FALSE(off_caller);
  EXPECT_FALSE(stale);
  ASSERT_EQ(consumed.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(consumed[i], i);
    EXPECT_EQ(body_hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, OrderedConsumesEveryIndexInOrderOnCaller) {
  ThreadPool pool(4);
  for (const int limit : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "limit " << limit);
    const ThreadPool::ScopedLimit cap(limit);
    for (const std::size_t n : {1, 7, 64, 1000}) {
      expect_ordered_contract(pool, n);
    }
  }
}

TEST(ThreadPool, OrderedConsumesInOrderOnWidePool) {
  ThreadPool pool(16);
  for (int round = 0; round < 5; ++round) {
    expect_ordered_contract(pool, 2000);
  }
}

TEST(ThreadPool, OrderedZeroIsANoop) {
  ThreadPool pool(2);
  pool.parallel_for_ordered(
      0, [](std::size_t) { FAIL() << "body must not run"; },
      [](std::size_t) { FAIL() << "consume must not run"; });
}

TEST(ThreadPool, OrderedBodyExceptionPropagatesAfterSection) {
  ThreadPool pool(4);
  for (const int limit : {1, 4}) {
    const ThreadPool::ScopedLimit cap(limit);
    std::atomic<int> running{0};
    std::vector<std::size_t> consumed;
    EXPECT_THROW(pool.parallel_for_ordered(
                     100,
                     [&](std::size_t i) {
                       running.fetch_add(1);
                       std::this_thread::yield();
                       running.fetch_sub(1);
                       if (i == 37) throw std::runtime_error("body 37");
                     },
                     [&](std::size_t i) { consumed.push_back(i); }),
                 std::runtime_error);
    EXPECT_EQ(running.load(), 0) << "limit " << limit;  // section has ended
    // Only a prefix before the failing index was consumed.
    ASSERT_LE(consumed.size(), 37u);
    for (std::size_t i = 0; i < consumed.size(); ++i) {
      EXPECT_EQ(consumed[i], i);
    }
  }
  std::atomic<int> count{0};
  pool.parallel_for_ordered(
      50, [&](std::size_t) { count.fetch_add(1); }, [](std::size_t) {});
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, OrderedConsumeExceptionPropagatesAfterSection) {
  ThreadPool pool(4);
  for (const int limit : {1, 4}) {
    const ThreadPool::ScopedLimit cap(limit);
    std::atomic<int> running{0};
    std::vector<std::size_t> consumed;
    EXPECT_THROW(pool.parallel_for_ordered(
                     100,
                     [&](std::size_t) {
                       running.fetch_add(1);
                       std::this_thread::yield();
                       running.fetch_sub(1);
                     },
                     [&](std::size_t i) {
                       consumed.push_back(i);
                       if (i == 10) throw std::runtime_error("consume 10");
                     }),
                 std::runtime_error);
    EXPECT_EQ(running.load(), 0) << "limit " << limit;  // section has ended
    ASSERT_EQ(consumed.size(), 11u);  // nothing past the failure
    for (std::size_t i = 0; i < consumed.size(); ++i) {
      EXPECT_EQ(consumed[i], i);
    }
  }
  std::vector<std::size_t> consumed;
  pool.parallel_for_ordered(
      50, [](std::size_t) {}, [&](std::size_t i) { consumed.push_back(i); });
  EXPECT_EQ(consumed.size(), 50u);
}

TEST(ThreadPool, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::default_threads(), 1);
  EXPECT_GE(ThreadPool::global().size(), 1);
}

TEST(ThreadPoolRng, IndexedForkDoesNotAdvanceParent) {
  Rng parent(42);
  Rng copy = parent;
  (void)parent.fork(0);
  (void)parent.fork(123456);
  // Parent stream untouched by const forks.
  EXPECT_EQ(parent.next(), copy.next());
}

TEST(ThreadPoolRng, IndexedForkIsOrderIndependent) {
  Rng a(7), b(7);
  Rng a0 = a.fork(0);
  Rng a1 = a.fork(1);
  Rng b1 = b.fork(1);  // forked before index 0
  Rng b0 = b.fork(0);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a0.next(), b0.next());
    EXPECT_EQ(a1.next(), b1.next());
  }
}

TEST(ThreadPoolRng, IndexedForkStreamsAreDistinct) {
  Rng parent(99);
  Rng c0 = parent.fork(0);
  Rng c1 = parent.fork(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += c0.next() == c1.next();
  EXPECT_LT(equal, 4);  // adjacent indices decorrelated
  // Different parents give different children for the same index.
  Rng other(100);
  Rng d0 = other.fork(0);
  Rng e0 = Rng(99).fork(0);
  EXPECT_NE(d0.next(), e0.next());
}

/// Sum of 0..255 computed by a 4-wide section of the global pool.
long long four_wide_sum() {
  ThreadPool::ScopedLimit width(4);
  std::vector<long long> out(256, 0);
  ThreadPool::global().parallel_for(
      out.size(), [&out](std::size_t i) { out[i] = static_cast<long long>(i); },
      /*grain=*/8);
  return std::accumulate(out.begin(), out.end(), 0LL);
}

TEST(ThreadPoolDeathTest, ChildUsesPoolAfterParentStartedIt) {
  // The parent runs a section on the global pool's workers; then the death
  // statement runs another before dying. A bare fork taken right after a
  // section inherits the pool's mutexes and condition variable mid-use but
  // none of its worker threads, and can block in the section for good (at
  // googletest's default fork style this loop hung in most runs). The test
  // main's threadsafe style gives each child a freshly executed binary.
  for (int round = 0; round < 40; ++round) {
    ASSERT_EQ(four_wide_sum(), 32640);
    EXPECT_DEATH(
        {
          std::fprintf(stderr, "child sum %lld\n", four_wide_sum());
          std::abort();
        },
        "child sum 32640");
  }
}

}  // namespace
}  // namespace memfp
