// The main of every memfp test binary.
//
// Death tests run in gtest's "threadsafe" style: the child re-executes the
// binary and runs only that test, instead of continuing as a bare fork of
// the parent. A forked child inherits the global ThreadPool's queues and
// condition variable but none of its worker threads, so a parallel section
// in a death statement after the parent started the pool can block forever
// (ThreadPoolDeathTest.ChildUsesPoolAfterParentStartedIt).
#include <gtest/gtest.h>

int main(int argc, char** argv) {
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else  // googletest before 1.12
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
#endif
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
