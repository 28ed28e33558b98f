#pragma once
// Sharded multi-replica serving: N RecommendService replicas — each a
// batcher thread with its own SessionArena — pop one shared
// AdmissionQueue. There is no placement: any batcher with a free decode
// slot pops the next request, so none waits while a replica idles.
//
// Overload policy: requests carry a Priority class. When the queue's
// utilization reaches a class's shed threshold, the router refuses the
// request at once with kRejected plus a Retry-After-style hint
// (AdmissionQueue::estimated_wait_ms) instead of queueing it — batch
// traffic sheds first, interactive last. A request whose deadline is
// shorter than the estimated wait is shed up front too (deadline slack
// admission): it would only time out in the queue.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "serve/service.h"

namespace vpr::serve {

/// Scheduling class, best service first. Lower value = higher priority.
enum class Priority {
  kInteractive = 0,  // shed only when the queue is full
  kNormal = 1,
  kBatch = 2,  // shed first under load
};

[[nodiscard]] const char* to_string(Priority priority) noexcept;

/// Queue utilization at which kNormal / kBatch submissions are shed.
inline constexpr double kShedNormal = 0.75;
inline constexpr double kShedBatch = 0.50;
/// Shed a request whose deadline is below this factor x the estimated
/// queue wait.
inline constexpr double kDeadlineSlackFactor = 1.0;

struct RouterConfig {
  /// Number of replicas (each owns a batcher thread + SessionArena).
  int replicas = 2;
  /// Per-replica service configuration. The shared admission queue holds
  /// replicas x replica.queue_capacity requests.
  ServiceConfig replica;
};

/// The shared queue's submit-side counts, once for the fleet (replica
/// snapshots leave them 0), and per-replica batch-side snapshots.
struct RouterCounters {
  std::uint64_t shed = 0;  // refused by the overload policy
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shutdown_refused = 0;
  std::uint64_t queue_depth = 0;
  /// Tails of the merged per-replica latency sketches: an honest fleet
  /// p99/p99.9, which a mean of per-replica p99s is not.
  double fleet_p99_ms = 0.0;
  double fleet_p999_ms = 0.0;
  std::uint64_t fleet_latency_count = 0;
  std::vector<ServiceCounters> replica;

  [[nodiscard]] std::uint64_t total_completed() const;
  [[nodiscard]] util::Json to_json() const;
};

class Router {
 public:
  static constexpr std::chrono::milliseconds kNoDeadline =
      RecommendService::kNoDeadline;

  Router(const align::RecipeModel& model, RouterConfig config);
  /// Registry-backed fleet: each replica hot-swaps at its own batch
  /// boundaries, and each response reports the version that decoded it.
  /// Throws std::invalid_argument when the registry has no published
  /// version.
  Router(std::shared_ptr<ModelRegistry> registry, RouterConfig config);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Enqueue the request, or shed it under the overload policy. Throws
  /// std::invalid_argument for malformed input; `trace_id` as in
  /// RecommendService::submit.
  [[nodiscard]] std::future<Response> submit(
      std::vector<double> insight, int beam_width,
      std::chrono::milliseconds deadline = kNoDeadline,
      Priority priority = Priority::kNormal, std::uint64_t trace_id = 0);

  /// Close the shared queue, then drain and join every replica.
  /// Idempotent.
  void stop();

  [[nodiscard]] RouterCounters counters() const;
  [[nodiscard]] int replicas() const noexcept {
    return static_cast<int>(fleet_.size());
  }
  /// Direct replica access for tests (pause/resume, counters).
  [[nodiscard]] RecommendService& replica(int i) {
    return *fleet_.at(static_cast<std::size_t>(i));
  }
  /// Queued / shared queue capacity, in [0, 1].
  [[nodiscard]] double utilization() const {
    return admission_->utilization();
  }
  /// Null for the fixed-model constructor.
  [[nodiscard]] const std::shared_ptr<ModelRegistry>& registry()
      const noexcept {
    return registry_;
  }

 private:
  /// Exactly one of `fixed` / `registry` is set.
  Router(RouterConfig config, const align::RecipeModel* fixed,
         std::shared_ptr<ModelRegistry> registry);

  std::shared_ptr<ModelRegistry> registry_;
  std::shared_ptr<AdmissionQueue> admission_;
  std::vector<std::unique_ptr<RecommendService>> fleet_;
  std::atomic<std::uint64_t> shed_{0};
};

}  // namespace vpr::serve
