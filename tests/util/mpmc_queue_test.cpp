// MpmcQueue: the serving layer's admission queue. FIFO order, bounded
// non-blocking push (admission control), blocking push_wait (reader
// backpressure), drain-then-stop close semantics, and a
// multi-producer/multi-consumer stress case sized for TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "util/mpmc_queue.h"

namespace vpr::util {
namespace {

TEST(MpmcQueue, FifoOrderAndTryPop) {
  MpmcQueue<int> queue{4};
  EXPECT_EQ(queue.capacity(), 4U);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_TRUE(queue.try_push(3));
  EXPECT_EQ(queue.size(), 3U);
  int out = 0;
  EXPECT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(queue.try_pop(out));
  EXPECT_EQ(queue.size(), 0U);
}

TEST(MpmcQueue, PushRejectsWhenFullOrClosed) {
  MpmcQueue<int> queue{2};
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));  // full: reject, never block
  int out = 0;
  EXPECT_TRUE(queue.try_pop(out));
  EXPECT_TRUE(queue.try_push(4));  // space again
  queue.close();
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.try_push(5));  // closed: reject
}

TEST(MpmcQueue, PushDistinguishesFullFromClosed) {
  // The serving layer maps kFull to kRejected (backpressure) and kClosed
  // to kShutdown; the boolean try_push collapsed the two, which let a
  // submit racing with stop() misreport shutdown as rejection. The
  // tri-state result is decided under one lock acquisition.
  MpmcQueue<int> queue{1};
  EXPECT_EQ(queue.push(1), PushResult::kPushed);
  EXPECT_EQ(queue.push(2), PushResult::kFull);
  int out = 0;
  EXPECT_TRUE(queue.try_pop(out));
  EXPECT_EQ(queue.push(3), PushResult::kPushed);
  queue.close();
  // Closed wins over full *and* over available space: both report kClosed.
  EXPECT_EQ(queue.push(4), PushResult::kClosed);
  EXPECT_TRUE(queue.try_pop(out));
  EXPECT_EQ(queue.push(5), PushResult::kClosed);
}

TEST(MpmcQueue, CloseDrainsThenStops) {
  MpmcQueue<int> queue{4};
  EXPECT_TRUE(queue.try_push(7));
  EXPECT_TRUE(queue.try_push(8));
  queue.close();
  // Items queued before close stay poppable (the service drains its
  // backlog on stop()), then pop reports closed-and-drained.
  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(queue.pop(out));
}

TEST(MpmcQueue, CloseWakesBlockedConsumer) {
  MpmcQueue<int> queue{1};
  std::atomic<bool> returned{false};
  std::thread consumer{[&] {
    int out = 0;
    const bool got = queue.pop(out);  // blocks: queue is empty
    EXPECT_FALSE(got);
    returned.store(true);
  }};
  queue.close();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

TEST(MpmcQueue, PushWaitBlocksUntilSpaceOrClose) {
  // push_wait on a full queue must block (not spin, not report kFull),
  // complete with kPushed once a pop frees a slot, and give up with
  // kClosed when close() lands while it waits.
  MpmcQueue<int> queue{1};
  ASSERT_EQ(queue.push(1), PushResult::kPushed);

  std::atomic<bool> returned{false};
  PushResult result = PushResult::kFull;
  std::thread producer{[&] {
    result = queue.push_wait(2);
    returned.store(true);
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());  // still blocked: the queue is full
  int out = 0;
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out, 1);
  producer.join();
  EXPECT_EQ(result, PushResult::kPushed);
  EXPECT_EQ(queue.size(), 1U);

  returned.store(false);
  std::thread blocked{[&] {
    result = queue.push_wait(3);
    returned.store(true);
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  queue.close();
  blocked.join();
  EXPECT_EQ(result, PushResult::kClosed);
  ASSERT_TRUE(queue.pop(out));  // the queued item still drains
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.pop(out));
}

TEST(MpmcQueue, ConcurrentProducersAndConsumersDeliverEverythingOnce) {
  // 3 producers x 200 items vs 3 consumers, bounded at 8: every pushed
  // value is popped exactly once. try_push spins until accepted so the
  // bound exercises the full/empty transitions under contention; the
  // whole test is a TSan target for the queue's locking.
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 200;
  MpmcQueue<int> queue{8};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int value = p * kPerProducer + i;
        while (!queue.try_push(std::move(value))) {
          std::this_thread::yield();
        }
      }
    });
  }

  std::mutex seen_mutex;
  std::vector<int> seen;
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      int out = 0;
      while (queue.pop(out)) {
        std::lock_guard lock(seen_mutex);
        seen.push_back(out);
      }
    });
  }

  for (auto& t : producers) t.join();
  queue.close();  // producers done: consumers drain the tail and exit
  for (auto& t : consumers) t.join();

  ASSERT_EQ(seen.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
  }
}

}  // namespace
}  // namespace vpr::util
