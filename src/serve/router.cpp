#include "serve/router.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/registry.h"

namespace vpr::serve {

const char* to_string(Priority priority) noexcept {
  static constexpr const char* kNames[] = {"interactive", "normal", "batch"};
  const auto i = static_cast<std::size_t>(priority);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

std::uint64_t RouterCounters::total_completed() const {
  return std::accumulate(replica.begin(), replica.end(), std::uint64_t{0},
                         [](std::uint64_t acc, const ServiceCounters& c) {
                           return acc + c.completed;
                         });
}

util::Json RouterCounters::to_json() const {
  util::Json j = util::Json::object();
  j["shed"] = static_cast<double>(shed);
  j["submitted"] = static_cast<double>(submitted);
  j["rejected"] = static_cast<double>(rejected);
  j["shutdown_refused"] = static_cast<double>(shutdown_refused);
  j["queue_depth"] = static_cast<double>(queue_depth);
  j["fleet_p99_ms"] = fleet_p99_ms;
  j["fleet_p999_ms"] = fleet_p999_ms;
  j["fleet_latency_count"] = static_cast<double>(fleet_latency_count);
  util::Json arr = util::Json::array();
  for (const ServiceCounters& c : replica) arr.push_back(c.to_json());
  j["replicas"] = std::move(arr);
  return j;
}

Router::Router(const align::RecipeModel& model, RouterConfig config)
    : Router(config, &model, nullptr) {}

Router::Router(std::shared_ptr<ModelRegistry> registry, RouterConfig config)
    : Router(config, nullptr, std::move(registry)) {}

Router::Router(RouterConfig config, const align::RecipeModel* fixed,
               std::shared_ptr<ModelRegistry> registry)
    : registry_(std::move(registry)) {
  if (config.replicas < 1) {
    throw std::invalid_argument("Router: replicas < 1");
  }
  const ServiceConfig& rc = config.replica;
  admission_ = std::make_shared<AdmissionQueue>(
      static_cast<std::size_t>(config.replicas) * rc.queue_capacity,
      config.replicas * rc.max_inflight,
      (fixed != nullptr ? fixed->config() : registry_->model_config())
          .insight_dim,
      rc.max_beam_width);
  for (int i = 0; i < config.replicas; ++i) {
    fleet_.push_back(
        fixed != nullptr
            ? std::make_unique<RecommendService>(*fixed, rc, admission_)
            : std::make_unique<RecommendService>(registry_, rc, admission_));
  }
}

Router::~Router() { stop(); }

std::future<Response> Router::submit(std::vector<double> insight,
                                     int beam_width,
                                     std::chrono::milliseconds deadline,
                                     Priority priority,
                                     std::uint64_t trace_id) {
  // Malformed input is a caller bug: throw before any shedding.
  admission_->validate(insight, beam_width);
  const double threshold = priority == Priority::kBatch    ? kShedBatch
                           : priority == Priority::kNormal ? kShedNormal
                                                           : 1.0;
  const double wait_ms = admission_->estimated_wait_ms();
  const bool hopeless =
      deadline != kNoDeadline &&
      static_cast<double>(deadline.count()) < kDeadlineSlackFactor * wait_ms;
  // A closed queue answers kShutdown, never a retry hint.
  if ((utilization() < threshold && !hopeless) || admission_->closed()) {
    return admission_->submit(std::move(insight), beam_width, deadline,
                              trace_id);
  }
  shed_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& shed_metric = obs::MetricsRegistry::instance().counter(
      "serve.shed",
      "requests refused by the overload policy (fast kRejected with a "
      "retry_after_ms hint)");
  shed_metric.inc();
  Response response;
  response.status = Status::kRejected;
  response.retry_after_ms = std::max(1.0, wait_ms);
  response.trace_id =
      trace_id != 0 ? trace_id : obs::TraceRecorder::next_id();
  auto& recorder = obs::TraceRecorder::instance();
  if (recorder.enabled()) {
    recorder.async_instant("serve.shed", "serve", response.trace_id,
                           {{"priority", to_string(priority)},
                            {"retry_after_ms", response.retry_after_ms}});
  }
  std::promise<Response> promise;
  promise.set_value(std::move(response));
  return promise.get_future();
}

void Router::stop() {
  admission_->close();
  for (auto& r : fleet_) r->stop();
}

RouterCounters Router::counters() const {
  RouterCounters c;
  c.shed = shed_.load(std::memory_order_relaxed);
  admission_->fill(c);
  obs::QuantileSketch sketch;
  for (const auto& r : fleet_) {
    c.replica.push_back(r->counters());
    sketch.merge(r->latency_sketch());
  }
  if (sketch.count() > 0) {
    c.fleet_p99_ms = sketch.quantile(0.99);
    c.fleet_p999_ms = sketch.quantile(0.999);
    c.fleet_latency_count = sketch.count();
  }
  return c;
}

}  // namespace vpr::serve
