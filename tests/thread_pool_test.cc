#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace wcp::common {
namespace {

TEST(ThreadPool, DefaultThreadsHonorsEnvOverride) {
  ::setenv("WCP_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_threads(), 3u);
  ::setenv("WCP_THREADS", "1", 1);
  EXPECT_EQ(ThreadPool::default_threads(), 1u);
  ::unsetenv("WCP_THREADS");
  EXPECT_GE(ThreadPool::default_threads(), 1u);
}

TEST(ThreadPool, DefaultThreadsRejectsInvalidEnvValues) {
  // A thread count of 0 or garbage used to fall back silently to
  // hardware_concurrency(), hiding typos like WCP_THREADS=O8. Every
  // invalid value must now fail loudly.
  for (const char* bad : {"0", "-1", "-8", " ", "4x", "x4", "garbage",
                          "1e3", "0x4", "99999999999999999999"}) {
    ::setenv("WCP_THREADS", bad, 1);
    EXPECT_THROW(ThreadPool::default_threads(), std::invalid_argument)
        << "WCP_THREADS=\"" << bad << "\" should be rejected";
  }
  // An empty value means unset, matching the shell's `WCP_THREADS= cmd`.
  ::setenv("WCP_THREADS", "", 1);
  EXPECT_GE(ThreadPool::default_threads(), 1u);
  ::unsetenv("WCP_THREADS");
}

TEST(ThreadPool, SingleLanePoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> hits{0};
  pool.submit([&] { ++hits; });
  EXPECT_EQ(hits.load(), 1);  // no workers: submit executes synchronously
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> seen(1000);
    pool.parallel_for(seen.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) ++seen[i];
    });
    for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
  }
}

TEST(ThreadPool, ParallelMapPreservesSubmissionOrder) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const auto out = pool.parallel_map<std::size_t>(
        257, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ThreadPool, ParallelReduceMatchesSerialFold) {
  std::vector<int> xs(1234);
  std::iota(xs.begin(), xs.end(), 1);
  const long expect = std::accumulate(xs.begin(), xs.end(), 0L);
  for (std::size_t threads : {1u, 3u, 8u}) {
    ThreadPool pool(threads);
    const long got = pool.parallel_reduce<long>(
        xs.size(), 0L, [&](long& acc, std::size_t i) { acc += xs[i]; },
        [](long& a, long& b) { a += b; });
    EXPECT_EQ(got, expect);
  }
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t b, std::size_t) {
                          if (b >= 50) throw std::runtime_error("boom");
                        },
                        /*grain=*/1),
      std::runtime_error);
  // The pool survives a failed job and keeps serving work.
  const auto out =
      pool.parallel_map<int>(8, [](std::size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(out.size(), 8u);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(
      8,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          // Inner fan-out on the same pool: the caller lane participates,
          // so exhausted queues cannot deadlock the outer job.
          ThreadPool inner(2);
          inner.parallel_for(16, [&](std::size_t ib, std::size_t ie) {
            total += static_cast<int>(ie - ib);
          });
        }
      },
      /*grain=*/1);
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPool, SubmittedTasksDrainOnDestruction) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 64; ++i) pool.submit([&] { ++done; });
  }  // destructor joins workers after the queues drain
  EXPECT_EQ(done.load(), 64);
}

}  // namespace
}  // namespace wcp::common
