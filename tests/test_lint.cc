// Tests for the in-tree analyzer (tools/lint): every rule must fire on its
// violation fixture, stay silent on the clean fixture, and respect an
// allow() suppression with a justification. The fixtures live in raw
// strings, which also exercises the lexer: when memfp_lint walks the real
// tree it lints THIS file, and none of the snippets below may leak out of
// their literals. Cross-TU rules (layering, cross-file unordered-iter) are
// driven through lint_files() with multi-file fixture sets, and the
// self-hosting test at the bottom lints the real checkout.
#include "lint_core.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace memfp::lint {
namespace {

std::vector<std::string> rules_found(std::string_view path,
                                     std::string_view source) {
  std::vector<std::string> rules;
  for (const Violation& v : lint_source(path, source)) {
    rules.push_back(v.rule);
  }
  return rules;
}

int count_rule(const std::vector<std::string>& rules,
               const std::string& rule) {
  return static_cast<int>(std::count(rules.begin(), rules.end(), rule));
}

// ---------------------------------------------------------------------------
// unseeded-random
// ---------------------------------------------------------------------------

TEST(LintUnseededRandom, FiresOnEveryBannedSource) {
  EXPECT_EQ(count_rule(rules_found("src/sim/x.cc", R"cc(
    int draw() { return rand() % 6; }
  )cc"),
                       "unseeded-random"),
            1);
  EXPECT_EQ(count_rule(rules_found("src/sim/x.cc", R"cc(
    std::mt19937 gen(42);
  )cc"),
                       "unseeded-random"),
            1);
  EXPECT_EQ(count_rule(rules_found("src/sim/x.cc", R"cc(
    std::random_device rd;
  )cc"),
                       "unseeded-random"),
            1);
  EXPECT_EQ(count_rule(rules_found("src/sim/x.cc", R"cc(
    void reseed() { srand(7); }
  )cc"),
                       "unseeded-random"),
            1);
}

TEST(LintUnseededRandom, SilentOnCleanCodeAndProjectRng) {
  EXPECT_TRUE(rules_found("src/sim/x.cc", R"cc(
    double draw(memfp::Rng& rng) { return rng.uniform(); }
    int spread(int operand) { return operand; }  // 'rand' inside a word
  )cc")
                  .empty());
  // The sanctioned implementation file is exempt.
  EXPECT_TRUE(rules_found("src/common/rng.cc", R"cc(
    std::uint64_t splitmix64_not_mt19937_but_exempt = rand();
  )cc")
                  .empty());
}

TEST(LintUnseededRandom, AppliesInTestsAndBench) {
  EXPECT_EQ(count_rule(rules_found("tests/test_x.cc", R"cc(
    std::mt19937 gen;
  )cc"),
                       "unseeded-random"),
            1);
  EXPECT_EQ(count_rule(rules_found("bench/bench_x.cc", R"cc(
    std::random_device rd;
  )cc"),
                       "unseeded-random"),
            1);
}

TEST(LintUnseededRandom, SuppressedWithJustification) {
  EXPECT_TRUE(rules_found("src/sim/x.cc", R"cc(
    // memfp-lint: allow(unseeded-random): seeding study needs raw entropy
    std::random_device rd;
  )cc")
                  .empty());
}

// ---------------------------------------------------------------------------
// wall-clock
// ---------------------------------------------------------------------------

TEST(LintWallClock, FiresOnClockReads) {
  EXPECT_EQ(count_rule(rules_found("src/core/x.cc", R"cc(
    auto t0 = std::chrono::steady_clock::now();
  )cc"),
                       "wall-clock"),
            1);
  EXPECT_EQ(count_rule(rules_found("src/core/x.cc", R"cc(
    std::time_t stamp = time(nullptr);
  )cc"),
                       "wall-clock"),
            1);
  EXPECT_EQ(count_rule(rules_found("src/core/x.cc", R"cc(
    long ticks = clock();
  )cc"),
                       "wall-clock"),
            1);
}

TEST(LintWallClock, SilentOnSimTimeAndMembers) {
  EXPECT_TRUE(rules_found("src/core/x.cc", R"cc(
    SimTime due = sample.time + windows.lead;
    bool late(const Sample& s) { return s.time > due; }
  )cc")
                  .empty());
}

TEST(LintWallClock, ScopedToSrcOnly) {
  // Benches and tests may time things; the contract covers library code.
  EXPECT_TRUE(rules_found("bench/bench_x.cc", R"cc(
    auto t0 = std::chrono::steady_clock::now();
  )cc")
                  .empty());
}

// ---------------------------------------------------------------------------
// unordered-iter
// ---------------------------------------------------------------------------

TEST(LintUnorderedIter, FiresOnRangeForOverUnorderedContainer) {
  const auto rules = rules_found("src/features/x.cc", R"cc(
    std::unordered_map<std::uint64_t, int> counts;
    void tally(std::vector<int>& out) {
      for (const auto& [key, count] : counts) out.push_back(count);
    }
  )cc");
  EXPECT_EQ(count_rule(rules, "unordered-iter"), 1);
}

TEST(LintUnorderedIter, TracksCommaSeparatedDeclarators) {
  const auto rules = rules_found("src/features/x.cc", R"cc(
    std::unordered_map<int, int> neg, pos;
    int sum() {
      int total = 0;
      for (const auto& [k, v] : pos) total += v;
      return total;
    }
  )cc");
  EXPECT_EQ(count_rule(rules, "unordered-iter"), 1);
}

TEST(LintUnorderedIter, SilentOnOrderedContainersAndIndexLoops) {
  EXPECT_TRUE(rules_found("src/features/x.cc", R"cc(
    std::map<std::uint64_t, int> counts;
    std::unordered_map<std::uint64_t, int> hist;
    void tally(std::vector<int>& out) {
      for (const auto& [key, count] : counts) out.push_back(count);
      for (std::size_t i = 0; i < out.size(); ++i) out[i] += 1;
    }
  )cc")
                  .empty());
}

TEST(LintUnorderedIter, SuppressedWithJustification) {
  EXPECT_TRUE(rules_found("src/features/x.cc", R"cc(
    std::unordered_map<std::uint64_t, int> counts;
    int max_count() {
      int best = 0;
      // memfp-lint: allow(unordered-iter): max() is order-independent
      for (const auto& [key, count] : counts) best = std::max(best, count);
      return best;
    }
  )cc")
                  .empty());
}

// ---------------------------------------------------------------------------
// bare-assert
// ---------------------------------------------------------------------------

TEST(LintBareAssert, FiresInLibraryCode) {
  EXPECT_EQ(count_rule(rules_found("src/ml/x.cc", R"cc(
    void f(int n) { assert(n > 0); }
  )cc"),
                       "bare-assert"),
            1);
}

TEST(LintBareAssert, SilentOnCheckMacrosStaticAssertAndTests) {
  EXPECT_TRUE(rules_found("src/ml/x.cc", R"cc(
    void f(int n) {
      MEMFP_CHECK(n > 0) << "need rows";
      static_assert(sizeof(int) == 4);
    }
  )cc")
                  .empty());
  // gtest's ASSERT_* family and test-local assert() are out of scope.
  EXPECT_TRUE(rules_found("tests/test_x.cc", R"cc(
    void f(int n) { assert(n > 0); }
  )cc")
                  .empty());
}

TEST(LintBareAssert, SuppressedWithJustification) {
  EXPECT_TRUE(rules_found("src/ml/x.cc", R"cc(
    // memfp-lint: allow(bare-assert): constexpr context, CHECK cannot run
    void f(int n) { assert(n > 0); }
  )cc")
                  .empty());
}

// ---------------------------------------------------------------------------
// naked-new
// ---------------------------------------------------------------------------

TEST(LintNakedNew, FiresOnNewAndDelete) {
  const auto rules = rules_found("src/core/x.cc", R"cc(
    void f() {
      int* p = new int(7);
      delete p;
    }
  )cc");
  EXPECT_EQ(count_rule(rules, "naked-new"), 2);
}

TEST(LintNakedNew, SilentOnSmartPointersAndDeletedFunctions) {
  EXPECT_TRUE(rules_found("src/core/x.cc", R"cc(
    struct Pool {
      Pool(const Pool&) = delete;
      Pool& operator=(const Pool&) = delete;
      std::unique_ptr<int> slot = std::make_unique<int>(7);
      int renewals = 0;  // 'new' inside a word
    };
  )cc")
                  .empty());
}

TEST(LintNakedNew, SuppressedWithJustification) {
  EXPECT_TRUE(rules_found("src/core/x.cc", R"cc(
    void* grab(std::size_t n) {
      // memfp-lint: allow(naked-new): arena handroll measured in BENCH.md
      return new char[n];
    }
  )cc")
                  .empty());
}

// ---------------------------------------------------------------------------
// thread-spawn
// ---------------------------------------------------------------------------

TEST(LintThreadSpawn, FiresOutsideThePool) {
  EXPECT_EQ(count_rule(rules_found("src/sim/x.cc", R"cc(
    void f() { std::thread worker([] {}); worker.join(); }
  )cc"),
                       "thread-spawn"),
            1);
}

TEST(LintThreadSpawn, SilentOnPoolFileAndNonSpawnUses) {
  EXPECT_TRUE(rules_found("src/common/thread_pool.cc", R"cc(
    std::thread worker([] {});
  )cc")
                  .empty());
  EXPECT_TRUE(rules_found("src/sim/x.cc", R"cc(
    unsigned hw = std::thread::hardware_concurrency();
    std::set<std::thread::id> ids;
  )cc")
                  .empty());
}

TEST(LintThreadSpawn, SuppressedWithJustification) {
  EXPECT_TRUE(rules_found("src/sim/x.cc", R"cc(
    // memfp-lint: allow(thread-spawn): watchdog must outlive the pool
    std::thread watchdog([] {});
  )cc")
                  .empty());
}

// ---------------------------------------------------------------------------
// pragma-once
// ---------------------------------------------------------------------------

TEST(LintPragmaOnce, FiresOnGuardlessHeader) {
  EXPECT_EQ(count_rule(rules_found("src/dram/x.h", R"cc(
    struct Coord { int row; int column; };
  )cc"),
                       "pragma-once"),
            1);
}

TEST(LintPragmaOnce, SilentWithGuardAndOnSourceFiles) {
  EXPECT_TRUE(rules_found("src/dram/x.h", R"cc(
    #pragma once
    struct Coord { int row; int column; };
  )cc")
                  .empty());
  EXPECT_TRUE(rules_found("src/dram/x.cc", R"cc(
    static int local = 0;
  )cc")
                  .empty());
}

TEST(LintPragmaOnce, SuppressedWithJustification) {
  EXPECT_TRUE(rules_found("src/dram/x.h", R"cc(
    // memfp-lint: allow(pragma-once): generated multi-include x-macro header
    struct Coord { int row; };
  )cc")
                  .empty());
}

// ---------------------------------------------------------------------------
// banned-include
// ---------------------------------------------------------------------------

TEST(LintBannedInclude, FiresOnBannedHeaders) {
  EXPECT_EQ(count_rule(rules_found("src/ml/x.cc", R"cc(
    #include <random>
  )cc"),
                       "banned-include"),
            1);
  EXPECT_EQ(count_rule(rules_found("src/ml/x.cc", R"cc(
    #include <cassert>
  )cc"),
                       "banned-include"),
            1);
  EXPECT_EQ(count_rule(rules_found("src/ml/x.cc", R"cc(
    #include <ctime>
  )cc"),
                       "banned-include"),
            1);
}

TEST(LintBannedInclude, IostreamBannedInHeadersOnly) {
  EXPECT_EQ(count_rule(rules_found("src/ml/x.h", R"cc(
    #pragma once
    #include <iostream>
  )cc"),
                       "banned-include"),
            1);
  EXPECT_TRUE(rules_found("src/ml/x.cc", R"cc(
    #include <iostream>
  )cc")
                  .empty());
}

TEST(LintBannedInclude, SilentOnAllowedHeaders) {
  EXPECT_TRUE(rules_found("src/ml/x.cc", R"cc(
    #include <algorithm>
    #include <vector>
    #include "common/check.h"
  )cc")
                  .empty());
}

TEST(LintBannedInclude, SuppressedWithJustification) {
  EXPECT_TRUE(rules_found("src/ml/x.cc", R"cc(
    // memfp-lint: allow(banned-include): bridging to a vendored API
    #include <ctime>
  )cc")
                  .empty());
}

// ---------------------------------------------------------------------------
// arch-intrinsics
// ---------------------------------------------------------------------------

TEST(LintArchIntrinsics, FiresOnIntrinsicHeaders) {
  EXPECT_EQ(count_rule(rules_found("src/ml/x.cc", R"cc(
    #include <immintrin.h>
  )cc"),
                       "arch-intrinsics"),
            1);
  EXPECT_EQ(count_rule(rules_found("src/ml/x.cc", R"cc(
    #include <emmintrin.h>
  )cc"),
                       "arch-intrinsics"),
            1);
  EXPECT_EQ(count_rule(rules_found("src/features/x.cc", R"cc(
    #include <arm_neon.h>
  )cc"),
                       "arch-intrinsics"),
            1);
}

TEST(LintArchIntrinsics, FiresOnRawIntrinsicsAndVectorTypes) {
  EXPECT_EQ(count_rule(rules_found("src/ml/x.cc", R"cc(
    __m256d acc = _mm256_setzero_pd();
  )cc"),
                       "arch-intrinsics"),
            1);
  EXPECT_EQ(count_rule(rules_found("src/ml/x.cc", R"cc(
    void f(double* p) { _mm512_storeu_pd(p, _mm512_setzero_pd()); }
  )cc"),
                       "arch-intrinsics"),
            1);
  EXPECT_EQ(count_rule(rules_found("src/ml/x.cc", R"cc(
    float32x4_t v = vld1q_f32(ptr);
  )cc"),
                       "arch-intrinsics"),
            1);
}

TEST(LintArchIntrinsics, AppliesInTestsAndBench) {
  EXPECT_EQ(count_rule(rules_found("tests/test_x.cc", R"cc(
    __m128i block = _mm_setzero_si128();
  )cc"),
                       "arch-intrinsics"),
            1);
  EXPECT_EQ(count_rule(rules_found("bench/bench_x.cc", R"cc(
    #include <x86intrin.h>
  )cc"),
                       "arch-intrinsics"),
            1);
}

TEST(LintArchIntrinsics, SimdSeamIsExempt) {
  // The per-lane kernel TUs and headers under src/common/simd* are the one
  // sanctioned home for raw intrinsics.
  EXPECT_TRUE(rules_found("src/common/simd_kernels_avx512.cc", R"cc(
    #include <immintrin.h>
    __m512d z = _mm512_setzero_pd();
  )cc")
                  .empty());
  EXPECT_TRUE(rules_found("src/common/simd_kernels_neon.cc", R"cc(
    #include <arm_neon.h>
    float64x2_t v = vld1q_f64(p);
  )cc")
                  .empty());
}

TEST(LintArchIntrinsics, SilentOnDispatchApiUse) {
  EXPECT_TRUE(rules_found("src/ml/x.cc", R"cc(
    #include "common/simd.h"
    void f() { const memfp::simd::KernelTable& kt = memfp::simd::kernels(); }
    int summed(int s) { return s; }  // 'mm' inside words stays clean
  )cc")
                  .empty());
}

TEST(LintArchIntrinsics, SuppressedWithJustification) {
  EXPECT_TRUE(rules_found("src/ml/x.cc", R"cc(
    // memfp-lint: allow(arch-intrinsics): one-off diagnostic harness
    __m128d w = _mm_setzero_pd();
  )cc")
                  .empty());
}

// ---------------------------------------------------------------------------
// layering (cross-TU: the module DAG is machine-checked)
// ---------------------------------------------------------------------------

TEST(LintLayering, FiresOnUpwardInclude) {
  const auto violations =
      lint_source("src/sim/x.cc", "#include \"ml/model.h\"\n");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "layering");
  EXPECT_NE(violations[0].message.find("climbs the module DAG"),
            std::string::npos);
}

TEST(LintLayering, FiresOnServingShapedUpwardInclude) {
  // The serving engine lives in mlops (layer 4). A lower layer reaching up
  // for it — say ml grabbing the engine to score "in place" — is exactly
  // the inversion the DAG exists to block: ml is what serving serves.
  const auto violations =
      lint_source("src/ml/x.cc", "#include \"mlops/serving.h\"\n");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "layering");
  EXPECT_NE(violations[0].message.find("climbs the module DAG"),
            std::string::npos);
  EXPECT_NE(violations[0].message.find("mlops"), std::string::npos);
}

TEST(LintLayering, FiresOnUnsanctionedSiblingInclude) {
  const auto rules = rules_found("src/sim/x.cc",
                                 "#include \"features/extractor.h\"\n");
  EXPECT_EQ(count_rule(rules, "layering"), 1);
}

TEST(LintLayering, SilentOnDownwardAndSanctionedLateralIncludes) {
  EXPECT_TRUE(rules_found("src/ml/x.cc", R"cc(
    #include "common/check.h"
    #include "features/extractor.h"
    #include "ml/model.h"
  )cc")
                  .empty());
  // The four sanctioned lateral edges.
  EXPECT_TRUE(
      rules_found("src/features/x.cc", "#include \"sim/trace.h\"\n")
          .empty());
  EXPECT_TRUE(
      rules_found("src/core/x.cc", "#include \"baseline/risky_ce_pattern.h\"\n")
          .empty());
  EXPECT_TRUE(
      rules_found("src/mlops/x.cc", "#include \"core/pipeline.h\"\n").empty());
  EXPECT_TRUE(
      rules_found("src/core/x.cc", "#include \"mlops/alarm.h\"\n").empty());
}

TEST(LintLayering, CampaignEngineEdgesAreSanctioned) {
  // The campaign engine's include shape: core reaching down to sim/ml and
  // laterally into mlops for the policy-accounting headers must all pass.
  EXPECT_TRUE(rules_found("src/core/campaign.cc", R"cc(
    #include "core/campaign.h"
    #include "core/stage_cache.h"
    #include "ml/metrics.h"
    #include "mlops/alarm.h"
    #include "sim/dimm_sim.h"
    #include "sim/page_offline.h"
    #include "sim/trace_store.h"
  )cc")
                  .empty());
}

TEST(LintLayering, CoreMlopsEdgeDoesNotOpenTheWholeLayer) {
  // core->mlops is sanctioned; the other sibling pairs in layer 4 are not.
  const auto violations =
      lint_source("src/baseline/x.cc", "#include \"mlops/alarm.h\"\n");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "layering");
  EXPECT_NE(violations[0].message.find("core->mlops"), std::string::npos);
  EXPECT_EQ(
      lint_source("src/mlops/x.cc", "#include \"baseline/risky_ce_pattern.h\"\n")
          .size(),
      1u);
}

TEST(LintLayering, FiresOnUnknownModule) {
  const auto violations = lint_source("src/telemetry/x.cc", "int x = 0;\n");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "layering");
  EXPECT_NE(violations[0].message.find("not in the layering DAG"),
            std::string::npos);
}

TEST(LintLayering, SrcNeverIncludesTestSupport) {
  // tests/support (the Hsiao codec oracle, the test main) may depend on
  // src/, never the reverse. Its headers are included as "support/...", so
  // a src/ file reaching for one names a module outside the DAG.
  const auto violations = lint_files({
      {"src/dram/ecc.cc", "#include \"support/hsiao.h\"\n"},
      {"tests/support/hsiao.h", "#pragma once\n#include \"dram/ecc.h\"\n"},
      {"tests/test_hsiao.cc", "#include \"support/hsiao.h\"\n"},
  });
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].file, "src/dram/ecc.cc");
  EXPECT_EQ(violations[0].rule, "layering");
  EXPECT_NE(violations[0].message.find("'support' is not a module"),
            std::string::npos);
}

TEST(LintLayering, ReportsIncludeCyclesWithTheChain) {
  const auto violations = lint_files({
      {"src/dram/a.h", "#pragma once\n#include \"dram/b.h\"\n"},
      {"src/dram/b.h", "#pragma once\n#include \"dram/a.h\"\n"},
  });
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "layering");
  EXPECT_NE(violations[0].message.find("include cycle"), std::string::npos);
  EXPECT_NE(violations[0].message.find(
                "src/dram/a.h -> src/dram/b.h -> src/dram/a.h"),
            std::string::npos);
}

TEST(LintLayering, ScopedToSrcAndSuppressible) {
  // Tests may include anything.
  EXPECT_TRUE(rules_found("tests/test_x.cc", R"cc(
    #include "ml/model.h"
    #include "sim/fleet.h"
  )cc")
                  .empty());
  EXPECT_TRUE(rules_found("src/sim/x.cc", R"cc(
    // memfp-lint: allow(layering): transitional edge, removal in ROADMAP
    #include "ml/model.h"
  )cc")
                  .empty());
}

// ---------------------------------------------------------------------------
// unordered-iter, cross-file (the symbol table crosses the include DAG)
// ---------------------------------------------------------------------------

TEST(LintUnorderedIter, SeesMembersDeclaredInTransitiveHeaders) {
  const auto violations = lint_files({
      {"src/features/bank.h",
       "#pragma once\n"
       "struct BankState { std::unordered_map<int, int> rows; };\n"},
      {"src/features/state.h",
       "#pragma once\n"
       "#include \"features/bank.h\"\n"
       "struct State { BankState bank; };\n"},
      {"src/features/use.cc",
       "#include \"features/state.h\"\n"
       "int f(const State& s) {\n"
       "  int t = 0;\n"
       "  for (const auto& [k, v] : s.bank.rows) t += v;\n"
       "  return t;\n"
       "}\n"},
  });
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].file, "src/features/use.cc");
  EXPECT_EQ(violations[0].rule, "unordered-iter");
  // The diagnostic names the declaring header, two includes away.
  EXPECT_NE(violations[0].message.find("src/features/bank.h:2"),
            std::string::npos);
}

TEST(LintUnorderedIter, BareNameBindsWithinModuleOnly) {
  // Same module: a bare member name declared in the module's header fires.
  EXPECT_EQ(lint_files({
                {"src/features/state.h",
                 "#pragma once\n"
                 "struct S { std::unordered_set<int> devices_seen_; };\n"},
                {"src/features/use.cc",
                 "#include \"features/state.h\"\n"
                 "int S_count() {\n"
                 "  int t = 0;\n"
                 "  for (int d : devices_seen_) t += d;\n"
                 "  return t;\n"
                 "}\n"},
            })
                .size(),
            1u);
  // Another module's bare local with a colliding name does not: only
  // member access (s.rows / s->rows) binds across module boundaries.
  EXPECT_TRUE(lint_files({
                  {"src/features/state.h",
                   "#pragma once\n"
                   "struct S { std::unordered_set<int> rows; };\n"},
                  {"src/ml/use.cc",
                   "#include \"features/state.h\"\n"
                   "int f(const std::vector<int>& rows) {\n"
                   "  int t = 0;\n"
                   "  for (int v : rows) t += v;\n"
                   "  return t;\n"
                   "}\n"},
              })
                  .empty());
}

// ---------------------------------------------------------------------------
// parallel-capture
// ---------------------------------------------------------------------------

TEST(LintParallelCapture, FiresOnSharedAccumulatorWrite) {
  const auto rules = rules_found("src/ml/x.cc", R"cc(
    void f(std::vector<double>& out) {
      double total = 0.0;
      ThreadPool::global().parallel_for(out.size(), [&](std::size_t i) {
        total += out[i];
      });
    }
  )cc");
  EXPECT_EQ(count_rule(rules, "parallel-capture"), 1);
}

TEST(LintParallelCapture, FiresOnPushBackToSharedVector) {
  const auto rules = rules_found("src/features/x.cc", R"cc(
    void gather(std::vector<int>& hits) {
      ThreadPool::global().parallel_for_chunks(
          0, 100, [&](std::size_t begin, std::size_t end) {
            hits.push_back(static_cast<int>(begin));
          });
    }
  )cc");
  EXPECT_EQ(count_rule(rules, "parallel-capture"), 1);
}

TEST(LintParallelCapture, OrderedChecksBodyButNotConsume) {
  // The body runs on the pool: a shared write there is a race.
  EXPECT_EQ(count_rule(rules_found("src/core/x.cc", R"cc(
    void f(std::vector<int>& out) {
      int total = 0;
      ThreadPool::global().parallel_for_ordered(
          out.size(), [&](std::size_t i) { total += out[i]; },
          [&](std::size_t i) { out[i] = 0; });
    }
  )cc"),
                       "parallel-capture"),
            1);
  // consume runs in index order on the calling thread: the same write is
  // the serial fold the primitive exists for.
  EXPECT_TRUE(rules_found("src/core/x.cc", R"cc(
    void f(std::vector<int>& out) {
      int total = 0;
      ThreadPool::global().parallel_for_ordered(
          out.size(), [&](std::size_t i) { out[i] *= 2; },
          [&](std::size_t i) { total += out[i]; });
    }
  )cc")
                  .empty());
}

TEST(LintParallelCapture, SilentOnIndexedSlotsAndLocals) {
  EXPECT_TRUE(rules_found("src/ml/x.cc", R"cc(
    void f(std::vector<double>& out, const std::vector<double>& in) {
      ThreadPool::global().parallel_for(out.size(), [&](std::size_t i) {
        double acc = 0.0;
        acc += in[i];
        out[i] = acc;
      });
    }
  )cc")
                  .empty());
}

TEST(LintParallelCapture, SilentOutsideParallelBodies) {
  // The same shape in a plain lambda is just serial code.
  EXPECT_TRUE(rules_found("src/ml/x.cc", R"cc(
    void f(const std::vector<double>& in) {
      double total = 0.0;
      std::for_each(in.begin(), in.end(), [&](double v) { total += v; });
    }
  )cc")
                  .empty());
}

TEST(LintParallelCapture, SuppressedWithJustification) {
  EXPECT_TRUE(rules_found("src/ml/x.cc", R"cc(
    void f(std::vector<double>& out, double& total) {
      ThreadPool::global().parallel_for(out.size(), [&](std::size_t i) {
        // memfp-lint: allow(parallel-capture): slot is mutex-guarded
        total += out[i];
      });
    }
  )cc")
                  .empty());
}

// ---------------------------------------------------------------------------
// rng-discipline
// ---------------------------------------------------------------------------

TEST(LintRngDiscipline, FiresOnByValueParameter) {
  EXPECT_EQ(count_rule(rules_found("src/sim/x.cc", R"cc(
    double jitter(Rng rng, double scale);
  )cc"),
                       "rng-discipline"),
            1);
}

TEST(LintRngDiscipline, FiresOnPlainCopy) {
  EXPECT_EQ(count_rule(rules_found("src/sim/x.cc", R"cc(
    void f(Rng& parent) {
      Rng child = parent;
      child.next();
    }
  )cc"),
                       "rng-discipline"),
            1);
}

TEST(LintRngDiscipline, FiresOnConstructionInParallelBody) {
  EXPECT_EQ(count_rule(rules_found("src/sim/x.cc", R"cc(
    void f(std::vector<double>& out, std::uint64_t seed) {
      ThreadPool::global().parallel_for(out.size(), [&, seed](std::size_t i) {
        Rng task_rng(seed + i);
        out[i] = task_rng.uniform();
      });
    }
  )cc"),
                       "rng-discipline"),
            1);
}

TEST(LintRngDiscipline, FiresOnDiscardedFork) {
  EXPECT_EQ(count_rule(rules_found("src/sim/x.cc", R"cc(
    void burn(Rng& rng) {
      rng.fork();
    }
  )cc"),
                       "rng-discipline"),
            1);
}

TEST(LintRngDiscipline, FiresOnValueCapturedRng) {
  EXPECT_EQ(count_rule(rules_found("src/sim/x.cc", R"cc(
    void f(Rng& parent) {
      Rng master = parent.fork(0);
      auto draw = [master]() mutable { return master.uniform(); };
      draw();
    }
  )cc"),
                       "rng-discipline"),
            1);
}

TEST(LintRngDiscipline, SilentOnForkedStreamsAndReferences) {
  EXPECT_TRUE(rules_found("src/sim/x.cc", R"cc(
    double jitter(Rng& rng, double scale) { return rng.uniform() * scale; }
    void f(std::vector<double>& out, Rng& base) {
      Rng child = base.fork(7);
      ThreadPool::global().parallel_for(out.size(), [&](std::size_t i) {
        Rng task_rng = base.fork(i);
        out[i] = task_rng.uniform();
      });
      auto draw = [rng = child.fork(1)]() mutable { return rng.uniform(); };
      out[0] += draw();
    }
  )cc")
                  .empty());
  // The Rng implementation itself is exempt.
  EXPECT_TRUE(rules_found("src/common/rng.cc", R"cc(
    Rng copy = other;
  )cc")
                  .empty());
}

TEST(LintRngDiscipline, SuppressedWithJustification) {
  EXPECT_TRUE(rules_found("src/sim/x.cc", R"cc(
    void f(const PlannedDimm& job) {
      // memfp-lint: allow(rng-discipline): job is const; sole advancing copy
      Rng dimm_rng = job.rng;
      dimm_rng.next();
    }
  )cc")
                  .empty());
}

// ---------------------------------------------------------------------------
// Project graph: include resolution, reachability, DOT emission
// ---------------------------------------------------------------------------

TEST(LintGraph, DotIsDeterministicAndClusteredByModule) {
  std::vector<std::pair<std::string, std::string>> sources = {
      {"src/ml/a.h", "#pragma once\n"},
      {"src/common/b.h", "#pragma once\n"},
      {"src/ml/c.cc", "#include \"ml/a.h\"\n#include \"common/b.h\"\n"},
  };
  const std::string forward = ProjectGraph::build(sources).to_dot();
  std::reverse(sources.begin(), sources.end());
  const std::string reversed = ProjectGraph::build(sources).to_dot();
  EXPECT_EQ(forward, reversed);  // byte-identical for any input order
  EXPECT_NE(forward.find("cluster_common"), std::string::npos);
  EXPECT_NE(forward.find("cluster_ml"), std::string::npos);
  EXPECT_NE(forward.find("->"), std::string::npos);
}

TEST(LintGraph, ReachabilityIsTransitive) {
  const ProjectGraph graph = ProjectGraph::build({
      {"src/common/a.h", "#pragma once\n"},
      {"src/dram/b.h", "#pragma once\n#include \"common/a.h\"\n"},
      {"src/sim/c.cc", "#include \"dram/b.h\"\n"},
  });
  const int c = graph.find("src/sim/c.cc");
  ASSERT_GE(c, 0);
  const std::vector<int> seen = graph.reachable(c);
  ASSERT_EQ(seen.size(), 2u);  // b.h directly, a.h transitively
  EXPECT_EQ(graph.files()[static_cast<std::size_t>(seen[0])].path,
            "src/common/a.h");
  EXPECT_EQ(graph.files()[static_cast<std::size_t>(seen[1])].path,
            "src/dram/b.h");
}

// ---------------------------------------------------------------------------
// Suppression mechanics
// ---------------------------------------------------------------------------

TEST(LintSuppressions, SameLineCommentAlsoSuppresses) {
  EXPECT_TRUE(rules_found("src/ml/x.cc", R"cc(
    void f(int n) { assert(n); }  // memfp-lint: allow(bare-assert): hot loop
  )cc")
                  .empty());
}

TEST(LintSuppressions, MissingJustificationIsAViolation) {
  const auto rules = rules_found("src/ml/x.cc", R"cc(
    // memfp-lint: allow(bare-assert)
    void f(int n) { assert(n > 0); }
  )cc");
  EXPECT_EQ(count_rule(rules, "missing-justification"), 1);
  // And the waiver does not take effect.
  EXPECT_EQ(count_rule(rules, "bare-assert"), 1);
}

TEST(LintSuppressions, UnknownRuleIsAViolation) {
  const auto rules = rules_found("src/ml/x.cc", R"cc(
    // memfp-lint: allow(no-such-rule): whatever
    int x = 0;
  )cc");
  EXPECT_EQ(count_rule(rules, "unknown-rule"), 1);
}

TEST(LintSuppressions, UnusedAllowIsAViolation) {
  const auto rules = rules_found("src/ml/x.cc", R"cc(
    // memfp-lint: allow(bare-assert): nothing here actually asserts
    int x = 0;
  )cc");
  EXPECT_EQ(count_rule(rules, "unused-allow"), 1);
}

TEST(LintSuppressions, AllowOnlyCoversItsOwnRule) {
  const auto rules = rules_found("src/ml/x.cc", R"cc(
    // memfp-lint: allow(naked-new): wrong rule for this line
    void f(int n) { assert(n > 0); }
  )cc");
  EXPECT_EQ(count_rule(rules, "bare-assert"), 1);
  EXPECT_EQ(count_rule(rules, "unused-allow"), 1);
}

TEST(LintSuppressions, UnusedAllowsForCrossTuRulesAreFlagged) {
  for (const char* rule : {"layering", "parallel-capture", "rng-discipline",
                           "unordered-iter"}) {
    const auto rules = rules_found(
        "src/ml/x.cc", std::string("// memfp-lint: allow(") + rule +
                           "): stale waiver\nint x = 0;\n");
    EXPECT_EQ(count_rule(rules, "unused-allow"), 1) << rule;
  }
}

// ---------------------------------------------------------------------------
// Scrubber: literals and comments never trigger rules
// ---------------------------------------------------------------------------

TEST(LintScrubber, CommentsAndStringsAreInvisible) {
  EXPECT_TRUE(rules_found("src/ml/x.cc", R"cc(
    // calling rand() here would be bad; so would new int
    /* std::thread t; assert(false); */
    const char* doc = "use std::mt19937 and rand() and new and delete";
  )cc")
                  .empty());
}

TEST(LintScrubber, RawStringsAreInvisible) {
  // Mirrors this very file: fixture code embedded in a raw string must not
  // fire when the tree walk lints the test itself.
  const std::string nested = std::string("const char* fixture = R\"(") +
                             "assert(1); std::thread t; new int;" + ")\";";
  EXPECT_TRUE(rules_found("src/ml/x.cc", nested).empty());
}

TEST(LintScrubber, ViolationCarriesFileLineColAndRule) {
  const auto violations = lint_source("src/ml/x.cc",
                                      "int a = 0;\n"
                                      "int* p = new int(3);\n");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].file, "src/ml/x.cc");
  EXPECT_EQ(violations[0].line, 2);
  EXPECT_EQ(violations[0].col, 10);
  EXPECT_EQ(violations[0].rule, "naked-new");
}

TEST(LintFormat, CompilerStyleOneLinePerViolation) {
  const auto violations = lint_source("src/ml/x.cc", "int* p = new int;\n");
  const std::string text = format(violations);
  EXPECT_NE(text.find("src/ml/x.cc:1:10: [naked-new]"), std::string::npos);
}

// The catalog the suppression parser accepts must cover every rule the
// engine can emit (meta rules excluded — they are never suppressible).
TEST(LintRules, CatalogIsComplete) {
  const std::vector<std::string> expected = {
      "unseeded-random", "wall-clock",       "unordered-iter",
      "bare-assert",     "naked-new",        "thread-spawn",
      "pragma-once",     "banned-include",   "arch-intrinsics",
      "layering",        "parallel-capture", "rng-discipline"};
  EXPECT_EQ(rule_names(), expected);
}

// ---------------------------------------------------------------------------
// Self-hosting: the real checkout must lint clean
// ---------------------------------------------------------------------------

#ifdef MEMFP_LINT_SELF_HOST_ROOT
TEST(LintSelfHost, RepoTreeIsClean) {
  const auto violations = lint_tree(MEMFP_LINT_SELF_HOST_ROOT);
  EXPECT_TRUE(violations.empty()) << "\n" << format(violations);
}
#endif

}  // namespace
}  // namespace memfp::lint
