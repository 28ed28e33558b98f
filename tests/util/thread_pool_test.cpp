#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace vpr::util {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  constexpr std::size_t kN = 1000;
  std::vector<int> hits(kN, 0);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ThreadPool, ZeroIterationsIsNoOp) {
  ThreadPool pool{2};
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ZeroWorkerPoolRunsOnCaller) {
  ThreadPool pool{1};
  // Capped to one participant: the calling thread does everything, in order.
  std::vector<int> order;
  pool.parallel_for(
      5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ResultsIndependentOfParticipantCount) {
  ThreadPool pool{8};
  constexpr std::size_t kN = 200;
  const auto run = [&](unsigned max_workers) {
    std::vector<double> out(kN, 0.0);
    pool.parallel_for(
        kN, [&](std::size_t i) { out[i] = static_cast<double>(i) * 1.5; },
        max_workers);
    return out;
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(ThreadPool, MoreWorkersThanWork) {
  ThreadPool pool{16};
  std::vector<int> hits(3, 0);
  pool.parallel_for(3, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 3);
}

TEST(ThreadPool, PropagatesFirstBodyException) {
  ThreadPool pool{4};
  // max_workers 1 takes the inline path on the calling thread.
  for (const unsigned max_workers : {0u, 1u}) {
    EXPECT_THROW(pool.parallel_for(
                     256,
                     [](std::size_t i) {
                       if (i == 37) throw std::runtime_error("boom");
                     },
                     max_workers),
                 std::runtime_error)
        << "max_workers " << max_workers;
  }
}

TEST(ThreadPool, ExceptionCancelsRemainingWork) {
  ThreadPool pool{4};
  std::atomic<int> executed{0};
  try {
    pool.parallel_for(100000, [&](std::size_t) {
      ++executed;
      throw std::runtime_error("boom");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  // Each participant stops at its first failure; far fewer than n bodies run.
  EXPECT_LT(executed.load(), 100000);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool{4};
  EXPECT_THROW(
      pool.parallel_for(64, [](std::size_t) { throw std::logic_error("x"); }),
      std::logic_error);
  std::vector<int> hits(64, 0);
  pool.parallel_for(64, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool{4};
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    // Nested call finds the pool busy and runs inline on this worker.
    pool.parallel_for(8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  std::vector<int> hits(10, 0);
  ThreadPool::shared().parallel_for(10, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ThreadPool, UnevenBodiesStillCoverEverything) {
  ThreadPool pool{4};
  constexpr std::size_t kN = 400;
  std::vector<int> hits(kN, 0);
  pool.parallel_for(kN, [&](std::size_t i) {
    // Skewed cost: the tail indices spin, exercising the stealing path.
    volatile int sink = 0;
    const int spin = i > kN - 16 ? 20000 : 1;
    for (int s = 0; s < spin; ++s) sink = sink + s;
    ++hits[i];
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i], 1) << i;
}

// One-shot parallel loops go through the shared pool with a participant cap:
// ThreadPool::shared().parallel_for(n, body, threads). These pin that call
// form, including the cap of 1 (inline, in index order) and no cap.

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<int> hits(kN, 0);
  ThreadPool::shared().parallel_for(kN, [&](std::size_t i) { ++hits[i]; }, 4);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelFor, ZeroIterationsIsNoOp) {
  bool touched = false;
  ThreadPool::shared().parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, SingleThreadFallback) {
  std::vector<int> order;
  ThreadPool::shared().parallel_for(
      5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, ResultsIndependentOfThreadCount) {
  constexpr std::size_t kN = 200;
  const auto run = [&](unsigned threads) {
    std::vector<double> out(kN, 0.0);
    ThreadPool::shared().parallel_for(
        kN, [&](std::size_t i) { out[i] = static_cast<double>(i) * 1.5; },
        threads);
    return out;
  };
  EXPECT_EQ(run(1), run(8));
  EXPECT_EQ(run(1), run(0));
}

TEST(ParallelFor, MoreWorkersThanWork) {
  std::vector<int> hits(3, 0);
  ThreadPool::shared().parallel_for(3, [&](std::size_t i) { ++hits[i]; }, 16);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 3);
}

TEST(ParallelFor, PropagatesBodyExceptionToCaller) {
  EXPECT_THROW(ThreadPool::shared().parallel_for(
                   128,
                   [](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   },
                   4),
               std::runtime_error);
}

TEST(ParallelFor, PropagatesExceptionOnSequentialPath) {
  EXPECT_THROW(ThreadPool::shared().parallel_for(
                   8, [](std::size_t) { throw std::logic_error("boom"); }, 1),
               std::logic_error);
}

TEST(ParallelFor, ExceptionCancelsRemainingIndices) {
  std::atomic<int> executed{0};
  try {
    ThreadPool::shared().parallel_for(
        100000,
        [&](std::size_t) {
          ++executed;
          throw std::runtime_error("boom");
        },
        4);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(executed.load(), 100000);
}

}  // namespace
}  // namespace vpr::util
