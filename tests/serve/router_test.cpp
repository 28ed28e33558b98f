// serve::Router — N batchers popping one shared admission queue, plus the
// overload policy. The fleet must be work-conserving (a frozen replica
// cannot strand traffic), shedding must follow the priority classes
// (batch first, normal next, interactive only when the queue is full)
// against the aggregate capacity, shed responses must resolve immediately
// with a Retry-After hint from the fleet-wide wait estimate, and responses
// must stay bitwise identical to per-request beam_search. pause() on
// individual replicas makes the load states deterministic on one core.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "align/beam.h"
#include "serve/router.h"
#include "util/rng.h"

namespace vpr::serve {
namespace {

using namespace std::chrono_literals;

align::RecipeModel test_model() {
  util::Rng rng{7};
  return align::RecipeModel{align::ModelConfig{}, rng};
}

std::vector<std::vector<double>> suite_insights(int dim) {
  std::vector<std::vector<double>> out;
  for (int design = 1; design <= 17; ++design) {
    util::Rng rng{util::hash_combine(0x5e27eb43ULL,
                                     static_cast<std::uint64_t>(design))};
    std::vector<double> iv(static_cast<std::size_t>(dim));
    for (double& v : iv) v = rng.normal() * 0.5;
    iv.back() = 1.0;
    out.push_back(std::move(iv));
  }
  return out;
}

TEST(Router, RoutedResponsesMatchPerRequestBeamSearch) {
  // The sharding must not cost correctness: every response from a
  // 2-replica fleet is bitwise equal to a fresh lone beam_search.
  const auto model = test_model();
  const auto insights = suite_insights(model.config().insight_dim);
  constexpr int kWidth = 4;

  RouterConfig config;
  config.replicas = 2;
  Router router{model, config};
  std::vector<std::future<Response>> futures;
  for (const auto& iv : insights) {
    futures.push_back(
        router.submit(iv, kWidth, Router::kNoDeadline, Priority::kNormal));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response response = futures[i].get();
    ASSERT_EQ(response.status, Status::kOk) << "design " << i + 1;
    const auto expected = align::beam_search(model, insights[i], kWidth);
    ASSERT_EQ(response.candidates.size(), expected.size());
    for (std::size_t r = 0; r < expected.size(); ++r) {
      EXPECT_EQ(response.candidates[r].recipes, expected[r].recipes);
      EXPECT_DOUBLE_EQ(response.candidates[r].log_prob,
                       expected[r].log_prob);
    }
  }

  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.submitted, insights.size());
  EXPECT_EQ(counters.shed, 0U);
  EXPECT_EQ(counters.total_completed(), insights.size());
  ASSERT_EQ(counters.replica.size(), 2U);
  // Submit-side counts belong to the shared queue: reported once for the
  // fleet, never again per replica.
  for (const ServiceCounters& c : counters.replica) {
    EXPECT_EQ(c.submitted, 0U);
    EXPECT_EQ(c.queue_depth, 0U);
  }
}

TEST(Router, WorkConservingWhileAReplicaIsPaused) {
  // With one shared queue there is no placement to get wrong: while
  // replica 0 is frozen, replica 1 pops and completes the traffic. A
  // batcher paused while idle may still pop one request and hold it, so
  // all but at most one complete before replica 0 resumes.
  const auto model = test_model();
  const auto insights = suite_insights(model.config().insight_dim);
  constexpr int kRequests = 8;

  RouterConfig config;
  config.replicas = 2;
  Router router{model, config};
  router.replica(0).pause();

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(router.submit(insights[static_cast<std::size_t>(i)], 2,
                                    Router::kNoDeadline,
                                    Priority::kInteractive));
  }
  const auto give_up = std::chrono::steady_clock::now() + 60s;
  while (router.replica(1).counters().completed < kRequests - 1 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(router.replica(1).counters().completed,
            static_cast<std::uint64_t>(kRequests - 1));
  EXPECT_EQ(router.replica(0).counters().completed, 0U);

  router.replica(0).resume();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, Status::kOk);
  }
  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.total_completed(), static_cast<std::uint64_t>(kRequests));
  EXPECT_LE(counters.replica[0].completed, 1U);
  router.stop();
}

TEST(Router, ShedsAgainstAggregateQueueCapacity) {
  // Two replicas of queue_capacity 4 share one queue of 8: thresholds are
  // fractions of 8, not of either replica's 4. Both batchers are frozen
  // while idle; each may still pop one request and hold it outside the
  // queue.
  const auto model = test_model();
  const auto insights = suite_insights(model.config().insight_dim);

  RouterConfig config;
  config.replicas = 2;
  config.replica.queue_capacity = 4;
  Router router{model, config};
  router.replica(0).pause();
  router.replica(1).pause();

  std::vector<std::future<Response>> accepted;
  const auto submit = [&](Priority priority) {
    return router.submit(insights[0], 2, Router::kNoDeadline, priority);
  };
  const auto is_shed = [](std::future<Response>& f) {
    return f.wait_for(0s) == std::future_status::ready;
  };

  // At most 3 queued = 3/8 < 0.5: a batch request still rides, although
  // one replica's share (4) would already be 75% full.
  for (int i = 0; i < 3; ++i) accepted.push_back(submit(Priority::kInteractive));
  auto batch = submit(Priority::kBatch);
  ASSERT_FALSE(is_shed(batch));
  accepted.push_back(std::move(batch));

  // Fill until interactive traffic sheds, which takes a full queue of 8:
  // at least 8 accepted, plus at most one held by each batcher.
  std::future<Response> shed_interactive;
  for (int i = 0; i < 16; ++i) {
    auto f = submit(Priority::kInteractive);
    if (is_shed(f)) {
      shed_interactive = std::move(f);
      break;
    }
    accepted.push_back(std::move(f));
  }
  ASSERT_TRUE(shed_interactive.valid()) << "queue never filled";
  EXPECT_EQ(shed_interactive.get().status, Status::kRejected);
  const RouterCounters counters = router.counters();
  EXPECT_GE(accepted.size(), 8U);
  EXPECT_LE(accepted.size(), 10U);
  EXPECT_EQ(counters.submitted, accepted.size());

  router.replica(0).resume();
  router.replica(1).resume();
  for (auto& f : accepted) {
    EXPECT_EQ(f.get().status, Status::kOk);
  }
  router.stop();
}

TEST(Router, ShedsByPriorityClassUnderLoad) {
  // One replica, queue capacity 8, batcher frozen (while idle, so it
  // holds at most one popped request). Utilization climbs as
  // interactive traffic queues; batch sheds at 0.50, normal at 0.75, and
  // interactive only once the queue is entirely full. Shed responses
  // resolve immediately (no batcher involvement) with a retry hint.
  const auto model = test_model();
  const auto insights = suite_insights(model.config().insight_dim);

  RouterConfig config;
  config.replicas = 1;
  config.replica.queue_capacity = 8;
  config.replica.max_inflight = 2;
  Router router{model, config};
  router.replica(0).pause();

  std::vector<std::future<Response>> accepted;
  const auto submit = [&](Priority priority) {
    return router.submit(insights[0], 2, Router::kNoDeadline, priority);
  };
  const auto is_shed = [](std::future<Response>& f) {
    return f.wait_for(0s) == std::future_status::ready;
  };

  // Queue depth >= 4 (utilization >= 0.50): batch sheds, normal rides.
  for (int i = 0; i < 5; ++i) accepted.push_back(submit(Priority::kInteractive));
  auto shed_batch = submit(Priority::kBatch);
  ASSERT_TRUE(is_shed(shed_batch));
  const Response batch_response = shed_batch.get();
  EXPECT_EQ(batch_response.status, Status::kRejected);
  EXPECT_GE(batch_response.retry_after_ms, 1.0);

  // Queue depth >= 6 (utilization >= 0.75): normal sheds too.
  for (int i = 0; i < 2; ++i) accepted.push_back(submit(Priority::kInteractive));
  auto shed_normal = submit(Priority::kNormal);
  ASSERT_TRUE(is_shed(shed_normal));
  EXPECT_EQ(shed_normal.get().status, Status::kRejected);

  // Fill the queue completely: even interactive traffic sheds, with the
  // cold-start drain estimate as the hint (backlog x 10 ms).
  std::future<Response> shed_interactive;
  for (int i = 0; i < 4; ++i) {
    auto f = submit(Priority::kInteractive);
    if (is_shed(f)) {
      shed_interactive = std::move(f);
      break;
    }
    accepted.push_back(std::move(f));
  }
  ASSERT_TRUE(shed_interactive.valid()) << "queue never filled";
  const Response interactive_response = shed_interactive.get();
  EXPECT_EQ(interactive_response.status, Status::kRejected);
  EXPECT_GE(interactive_response.retry_after_ms, 1.0);

  const RouterCounters counters = router.counters();
  EXPECT_GE(counters.shed, 3U);
  EXPECT_EQ(counters.submitted, accepted.size());

  router.replica(0).resume();
  for (auto& f : accepted) {
    EXPECT_EQ(f.get().status, Status::kOk);
  }
  router.stop();
}

TEST(Router, ShedsRequestsWithoutDeadlineSlack) {
  // A queued backlog of >= 4 with no measured drain rate estimates >= 40ms
  // of wait (cold-start pessimism); a 10ms-deadline request would expire
  // in the queue and is shed up front, while a generous deadline rides.
  const auto model = test_model();
  const auto insights = suite_insights(model.config().insight_dim);

  RouterConfig config;
  config.replicas = 1;
  config.replica.queue_capacity = 64;
  Router router{model, config};
  router.replica(0).pause();

  std::vector<std::future<Response>> accepted;
  for (int i = 0; i < 5; ++i) {
    accepted.push_back(router.submit(insights[0], 2, Router::kNoDeadline,
                                     Priority::kInteractive));
  }
  auto hopeless = router.submit(insights[0], 2, 10ms, Priority::kInteractive);
  ASSERT_EQ(hopeless.wait_for(0s), std::future_status::ready);
  const Response shed_response = hopeless.get();
  EXPECT_EQ(shed_response.status, Status::kRejected);
  EXPECT_GE(shed_response.retry_after_ms, 40.0);

  accepted.push_back(
      router.submit(insights[0], 2, 60'000ms, Priority::kInteractive));
  router.replica(0).resume();
  for (auto& f : accepted) {
    EXPECT_EQ(f.get().status, Status::kOk);
  }
  router.stop();
}

TEST(AdmissionQueue, WaitEstimateScalesBacklogByMeasuredDecodeTime) {
  // The one fleet-wide estimate behind retry hints and slack admission:
  // ceil(backlog / decoders) x mean admission->completion ms, with 10 ms
  // per backlogged request before any decode has been measured.
  constexpr int kDim = 4;
  AdmissionQueue queue{8, /*decoders=*/2, kDim, /*max_beam_width=*/4};
  EXPECT_EQ(queue.estimated_wait_ms(), 0.0);  // idle

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(queue.submit(std::vector<double>(kDim, 0.5), 2,
                                   Router::kNoDeadline, 0));
  }
  EXPECT_DOUBLE_EQ(queue.estimated_wait_ms(), 50.0);  // cold start

  AdmissionQueue::Request request;
  ASSERT_TRUE(queue.try_pop(request));
  queue.finished(Status::kOk, 4.0);  // backlog 4, mean 4 ms
  EXPECT_DOUBLE_EQ(queue.estimated_wait_ms(), 8.0);
  ASSERT_TRUE(queue.try_pop(request));
  queue.finished(Status::kTimedOut);  // backlog 3: ceil(3/2) x 4 ms
  EXPECT_DOUBLE_EQ(queue.estimated_wait_ms(), 8.0);
  ASSERT_TRUE(queue.try_pop(request));
  queue.finished(Status::kOk, 8.0);  // backlog 2, mean 6 ms
  EXPECT_DOUBLE_EQ(queue.estimated_wait_ms(), 6.0);

  EXPECT_THROW(
      (void)queue.submit(std::vector<double>(kDim + 1, 0.5), 2,
                         Router::kNoDeadline, 0),
      std::invalid_argument);
  EXPECT_THROW((void)queue.submit(std::vector<double>(kDim, 0.5), 5,
                                  Router::kNoDeadline, 0),
               std::invalid_argument);
}

TEST(Router, StopShutsDownAndValidatesInput) {
  const auto model = test_model();
  const auto insights = suite_insights(model.config().insight_dim);
  RouterConfig config;
  config.replicas = 2;
  Router router{model, config};

  EXPECT_THROW(
      (void)router.submit(std::vector<double>(3, 0.0), 2,
                          Router::kNoDeadline, Priority::kNormal),
      std::invalid_argument);
  EXPECT_THROW((void)router.submit(insights[0], 0, Router::kNoDeadline,
                                   Priority::kNormal),
               std::invalid_argument);

  router.stop();
  auto late = router.submit(insights[0], 2, Router::kNoDeadline,
                            Priority::kInteractive);
  EXPECT_EQ(late.get().status, Status::kShutdown);
  EXPECT_EQ(router.counters().shutdown_refused, 1U);
  router.stop();  // idempotent

  RouterConfig empty;
  empty.replicas = 0;
  EXPECT_THROW((Router{model, empty}), std::invalid_argument);
}

}  // namespace
}  // namespace vpr::serve
