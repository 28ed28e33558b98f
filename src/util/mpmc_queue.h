#pragma once
// Bounded multi-producer/multi-consumer queue with blocking pop. push()
// never blocks: producers that hit the capacity bound get an immediate
// PushResult::kFull, which is the admission-control behaviour the serve
// layer wants — a full queue means the service is saturated and the
// request should be rejected, not buffered forever. push_wait() blocks
// for space instead, for producers that should stall rather than refuse
// (a connection reader whose pending-response window is full). A closed
// queue reports kClosed from the same lock acquisition, so producers can
// distinguish saturation from shutdown without a second racy probe.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

namespace vpr::util {

/// Outcome of a non-blocking push. kFull and kClosed are distinct on
/// purpose: the serve layer maps them to different client-visible statuses
/// (kRejected with a retry hint vs kShutdown), and a boolean push cannot
/// tell them apart without a second, racy closed() probe.
enum class PushResult {
  kPushed = 0,
  kFull,    // at capacity; retry later is meaningful
  kClosed,  // close() happened; no push will ever succeed again
};

template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(std::size_t capacity) : capacity_(capacity) {}

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Enqueue unless the queue is full or closed. Never blocks. The
  /// full/closed distinction is decided under the same lock acquisition
  /// that would have enqueued, so it cannot misreport a concurrent close()
  /// as backpressure. On kFull/kClosed `value` is left untouched.
  [[nodiscard]] PushResult push(T&& value) {
    {
      std::lock_guard lock(mutex_);
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) return PushResult::kFull;
      items_.push_back(std::move(value));
    }
    ready_.notify_one();
    return PushResult::kPushed;
  }

  /// Enqueue, blocking while the queue is full. Returns kPushed, or
  /// kClosed (leaving `value` untouched) when close() happened first or
  /// while waiting; never kFull.
  [[nodiscard]] PushResult push_wait(T&& value) {
    {
      std::unique_lock lock(mutex_);
      space_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
      if (closed_) return PushResult::kClosed;
      items_.push_back(std::move(value));
    }
    ready_.notify_one();
    return PushResult::kPushed;
  }

  /// Boolean push() for callers that treat full and closed alike.
  [[nodiscard]] bool try_push(T&& value) {
    return push(std::move(value)) == PushResult::kPushed;
  }

  /// Dequeue, blocking until an item arrives or the queue is closed.
  /// Returns false only when closed and drained.
  [[nodiscard]] bool pop(T& out) {
    {
      std::unique_lock lock(mutex_);
      ready_.wait(lock, [&] { return closed_ || !items_.empty(); });
      if (items_.empty()) return false;
      out = std::move(items_.front());
      items_.pop_front();
    }
    space_.notify_one();
    return true;
  }

  /// Dequeue if an item is immediately available. Never blocks.
  [[nodiscard]] bool try_pop(T& out) {
    {
      std::lock_guard lock(mutex_);
      if (items_.empty()) return false;
      out = std::move(items_.front());
      items_.pop_front();
    }
    space_.notify_one();
    return true;
  }

  /// Reject future pushes and wake every blocked pop and push_wait. Items
  /// already queued remain poppable (drain-then-stop semantics).
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
    space_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;  // an item arrived, or closed
  std::condition_variable space_;  // an item left, or closed
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace vpr::util
