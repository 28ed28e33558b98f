#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/registry.h"

namespace vpr::serve {

namespace {

double ms_between(RecommendService::Clock::time_point from,
                  RecommendService::Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// The process-wide serve.* series every RecommendService feeds. Updates
/// are relaxed atomic RMWs; each "count then fulfil the promise" pair
/// still guarantees the caller sees its own outcome, because the fetch_add
/// is sequenced before promise::set_value and future::get synchronizes
/// with it.
struct ServeMetrics {
  obs::Counter& submitted;
  obs::Counter& completed;
  obs::Counter& rejected;
  obs::Counter& shutdown_refused;
  obs::Counter& timed_out;
  obs::Counter& ticks;
  obs::Counter& batched_lanes;
  obs::Counter& swaps;
  obs::HistogramMetric& swap_ms;

  static ServeMetrics& get() {
    static auto& r = obs::MetricsRegistry::instance();
    static ServeMetrics m{
        r.counter("serve.submitted",
                  "requests accepted into the admission queue"),
        r.counter("serve.completed", "requests finished with kOk"),
        r.counter("serve.rejected", "requests rejected (queue full)"),
        r.counter("serve.shutdown_refused",
                  "submissions refused because the service was stopping"),
        r.counter("serve.timed_out", "requests expired before completion"),
        r.counter("serve.ticks", "batched forward passes"),
        r.counter("serve.batched_lanes", "sum of batch sizes over ticks"),
        r.counter("serve.swaps", "model-version hot swaps adopted"),
        r.histogram("serve.swap_ms", 0.0, 250.0, 50,
                    "publish -> batcher adoption wall milliseconds"),
    };
    return m;
  }
};

/// Wait estimate per backlogged request before any completion has been
/// measured (cold start): pessimistic, so early Retry-After hints err
/// toward backing off.
constexpr double kColdStartMsPerRequest = 10.0;

void respond(AdmissionQueue::Request& request, Status status,
             std::vector<align::BeamCandidate> candidates = {},
             AdmissionQueue::Clock::time_point admitted_at = {},
             std::uint64_t model_version = 0,
             double retry_after_ms = 0.0) {
  const auto now = AdmissionQueue::Clock::now();
  Response response;
  response.status = status;
  response.candidates = std::move(candidates);
  response.trace_id = request.trace_id;
  response.model_version = model_version;
  response.retry_after_ms = retry_after_ms;
  response.total_ms = ms_between(request.submitted_at, now);
  response.queue_ms = admitted_at == AdmissionQueue::Clock::time_point{}
                          ? response.total_ms
                          : ms_between(request.submitted_at, admitted_at);
  auto& recorder = obs::TraceRecorder::instance();
  if (recorder.enabled()) {
    recorder.async_end("serve.finish", "serve", request.trace_id,
                       {{"status", to_string(status)}});
  }
  request.promise.set_value(std::move(response));
}

/// Registry-backed construction requires a published version: a service
/// cannot admit traffic before any weights exist.
const align::RecipeModel* checked_model(
    const std::shared_ptr<const ModelVersion>& active) {
  if (active == nullptr) {
    throw std::invalid_argument(
        "RecommendService: registry has no published version");
  }
  return &active->model();
}

}  // namespace

const char* to_string(Status status) noexcept {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kRejected:
      return "rejected";
    case Status::kTimedOut:
      return "timed_out";
    case Status::kShutdown:
      return "shutdown";
    case Status::kBadRequest:
      return "bad_request";
  }
  return "unknown";
}

util::Json ServiceCounters::to_json() const {
  util::Json j = util::Json::object();
  j["submitted"] = static_cast<double>(submitted);
  j["completed"] = static_cast<double>(completed);
  j["rejected"] = static_cast<double>(rejected);
  j["shutdown_refused"] = static_cast<double>(shutdown_refused);
  j["timed_out"] = static_cast<double>(timed_out);
  j["ticks"] = static_cast<double>(ticks);
  j["batched_lanes"] = static_cast<double>(batched_lanes);
  j["mean_batch_lanes"] = mean_batch_lanes;
  j["peak_inflight"] = static_cast<double>(peak_inflight);
  j["queue_depth"] = static_cast<double>(queue_depth);
  j["p50_latency_ms"] = p50_latency_ms;
  j["p95_latency_ms"] = p95_latency_ms;
  j["p99_latency_ms"] = p99_latency_ms;
  j["sketch_p999_ms"] = sketch_p999_ms;
  j["qps"] = qps;
  j["sessions_created"] = static_cast<double>(sessions_created);
  j["session_reuses"] = static_cast<double>(session_reuses);
  j["model_version"] = static_cast<double>(model_version);
  j["swaps"] = static_cast<double>(swaps);
  j["mean_swap_ms"] = mean_swap_ms;
  j["max_swap_ms"] = max_swap_ms;
  return j;
}

AdmissionQueue::AdmissionQueue(std::size_t capacity, int decoders,
                               int insight_dim, int max_beam_width)
    : queue_(capacity),
      decoders_(std::max(1, decoders)),
      insight_dim_(static_cast<std::size_t>(insight_dim)),
      max_beam_width_(max_beam_width) {
  if (capacity < 1) {
    throw std::invalid_argument("AdmissionQueue: capacity < 1");
  }
}

void AdmissionQueue::validate(const std::vector<double>& insight,
                              int beam_width) const {
  if (insight.size() != insight_dim_) {
    throw std::invalid_argument("submit: insight dimension mismatch");
  }
  if (beam_width < 1 || beam_width > max_beam_width_) {
    throw std::invalid_argument("submit: beam width out of range");
  }
}

std::future<Response> AdmissionQueue::submit(
    std::vector<double> insight, int beam_width,
    std::chrono::milliseconds deadline, std::uint64_t trace_id) {
  validate(insight, beam_width);

  Request request;
  request.insight = std::move(insight);
  request.beam_width = beam_width;
  // Continue a caller-provided (cross-process) trace id; originate one
  // only for callers that have none.
  request.trace_id =
      trace_id != 0 ? trace_id : obs::TraceRecorder::next_id();
  request.submitted_at = Clock::now();
  request.deadline = deadline == RecommendService::kNoDeadline
                         ? Clock::time_point::max()
                         : request.submitted_at + deadline;
  std::future<Response> future = request.promise.get_future();

  auto& recorder = obs::TraceRecorder::instance();
  if (recorder.enabled()) {
    recorder.async_begin(
        "serve.request", "serve", request.trace_id,
        {{"beam_width", beam_width},
         {"deadline_ms", deadline == RecommendService::kNoDeadline
                             ? std::int64_t{0}
                             : deadline.count()}});
  }

  // The push result is decided under the queue's single lock acquisition,
  // so a submit racing with stop() sees exactly one of kPushed (it will be
  // drained and completed), kClosed (kShutdown), or kFull (kRejected —
  // genuine backpressure). Counters update before any promise is
  // fulfilled, as in admit()/finish().
  switch (queue_.push(std::move(request))) {
    case util::PushResult::kPushed:
      // Counted only on acceptance: serve.submitted means "admitted into
      // the queue", so completed + timed_out never exceeds it.
      ServeMetrics::get().submitted.inc();
      submitted_.fetch_add(1, std::memory_order_relaxed);
      break;
    case util::PushResult::kFull:
      // A failed push leaves `request` (and its promise) untouched.
      ServeMetrics::get().rejected.inc();
      rejected_.fetch_add(1, std::memory_order_relaxed);
      respond(request, Status::kRejected, {}, {}, 0,
              std::max(1.0, estimated_wait_ms()));
      break;
    case util::PushResult::kClosed:
      ServeMetrics::get().shutdown_refused.inc();
      shutdown_refused_.fetch_add(1, std::memory_order_relaxed);
      respond(request, Status::kShutdown);
      break;
  }
  return future;
}

void AdmissionQueue::finished(Status status, double decode_ms) {
  if (status == Status::kOk) {
    decode_ms_sum_.fetch_add(decode_ms, std::memory_order_relaxed);
    decoded_.fetch_add(1, std::memory_order_relaxed);
  } else if (status == Status::kRejected) {
    ServeMetrics::get().rejected.inc();
    rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  finished_.fetch_add(1, std::memory_order_relaxed);
}

double AdmissionQueue::estimated_wait_ms() const {
  // A popped request can finish before its submit is counted, so the
  // difference is clamped rather than trusted to be positive.
  const std::uint64_t finished = finished_.load(std::memory_order_relaxed);
  const std::uint64_t submitted = submitted_.load(std::memory_order_relaxed);
  if (submitted <= finished) return 0.0;
  const auto backlog = static_cast<double>(submitted - finished);
  const std::uint64_t decoded = decoded_.load(std::memory_order_relaxed);
  if (decoded == 0) return backlog * kColdStartMsPerRequest;
  const double mean_decode_ms =
      decode_ms_sum_.load(std::memory_order_relaxed) /
      static_cast<double>(decoded);
  return std::ceil(backlog / decoders_) * mean_decode_ms;
}

RecommendService::RecommendService(const align::RecipeModel& model,
                                   ServiceConfig config,
                                   std::shared_ptr<AdmissionQueue> admission)
    : RecommendService(config, &model, nullptr, std::move(admission)) {}

RecommendService::RecommendService(std::shared_ptr<ModelRegistry> registry,
                                   ServiceConfig config,
                                   std::shared_ptr<AdmissionQueue> admission)
    : RecommendService(config, nullptr, std::move(registry),
                       std::move(admission)) {}

RecommendService::RecommendService(ServiceConfig config,
                                   const align::RecipeModel* fixed,
                                   std::shared_ptr<ModelRegistry> registry,
                                   std::shared_ptr<AdmissionQueue> admission)
    : registry_(std::move(registry)),
      active_(registry_ != nullptr ? registry_->current() : nullptr),
      model_(fixed != nullptr ? fixed : checked_model(active_)),
      config_(config),
      arena_(*model_,
             config.arena_capacity > 0 ? config.arena_capacity
                                       : std::max(1, config.max_inflight),
             2 * std::max(1, config.max_beam_width)),
      own_admission_(admission == nullptr),
      admission_(own_admission_
                     ? std::make_shared<AdmissionQueue>(
                           config.queue_capacity, config.max_inflight,
                           model_->config().insight_dim,
                           config.max_beam_width)
                     : std::move(admission)) {
  if (config_.max_inflight < 1) {
    throw std::invalid_argument("RecommendService: max_inflight < 1");
  }
  if (config_.max_beam_width < 1) {
    throw std::invalid_argument("RecommendService: max_beam_width < 1");
  }
  if (config_.arena_capacity < 0) {
    throw std::invalid_argument("RecommendService: arena_capacity < 0");
  }
  if (active_ != nullptr) {
    active_version_.store(active_->version(), std::memory_order_relaxed);
  }
  batcher_ = std::thread([this] { batcher_loop(); });
}

RecommendService::~RecommendService() { stop(); }

std::future<Response> RecommendService::submit(
    std::vector<double> insight, int beam_width,
    std::chrono::milliseconds deadline, std::uint64_t trace_id) {
  return admission_->submit(std::move(insight), beam_width, deadline,
                            trace_id);
}

Response RecommendService::recommend(std::vector<double> insight,
                                     int beam_width,
                                     std::chrono::milliseconds deadline) {
  return submit(std::move(insight), beam_width, deadline).get();
}

void RecommendService::pause() {
  std::unique_lock lock(pause_mutex_);
  if (stopped_) return;  // a draining batcher must never park
  paused_ = true;
  // resume() and stop() both clear paused_, so neither can strand us here.
  pause_cv_.wait(lock, [this] {
    return batcher_at_ != BatcherAt::kWork || !paused_;
  });
}

void RecommendService::resume() {
  {
    std::lock_guard lock(pause_mutex_);
    paused_ = false;
  }
  pause_cv_.notify_all();
}

void RecommendService::stop() {
  bool join = false;
  {
    std::lock_guard lock(pause_mutex_);
    if (!stopped_) {
      stopped_ = true;
      paused_ = false;
      join = true;
    }
  }
  if (!join) return;
  pause_cv_.notify_all();
  admission_->close();
  if (batcher_.joinable()) batcher_.join();
}

obs::QuantileSketch RecommendService::latency_sketch() const {
  std::lock_guard lock(counters_mutex_);
  return latency_sketch_;
}

ServiceCounters RecommendService::counters() const {
  std::lock_guard lock(counters_mutex_);
  ServiceCounters snapshot;
  if (own_admission_) admission_->fill(snapshot);
  snapshot.completed = n_completed_.load(std::memory_order_relaxed);
  snapshot.timed_out = n_timed_out_.load(std::memory_order_relaxed);
  snapshot.ticks = n_ticks_.load(std::memory_order_relaxed);
  snapshot.batched_lanes = n_batched_lanes_.load(std::memory_order_relaxed);
  snapshot.peak_inflight = peak_inflight_;
  snapshot.sessions_created = arena_.created();
  snapshot.session_reuses = arena_.reuses();
  snapshot.mean_batch_lanes =
      snapshot.ticks > 0 ? static_cast<double>(snapshot.batched_lanes) /
                               static_cast<double>(snapshot.ticks)
                         : 0.0;
  snapshot.p50_latency_ms = latency_sketch_.quantile(0.50);
  snapshot.p95_latency_ms = latency_sketch_.quantile(0.95);
  snapshot.p99_latency_ms = latency_sketch_.quantile(0.99);
  snapshot.sketch_p999_ms = latency_sketch_.quantile(0.999);
  if (snapshot.completed > 0 && last_complete_ > first_admit_) {
    snapshot.qps = static_cast<double>(snapshot.completed) /
                   std::chrono::duration<double>(last_complete_ - first_admit_)
                       .count();
  }
  snapshot.model_version = active_version_.load(std::memory_order_relaxed);
  snapshot.swaps = n_swaps_.load(std::memory_order_relaxed);
  if (snapshot.swaps > 0) {
    snapshot.mean_swap_ms =
        swap_ms_sum_ / static_cast<double>(snapshot.swaps);
    snapshot.max_swap_ms = swap_ms_max_;
  }
  return snapshot;
}

void RecommendService::admit(Request&& request,
                             std::vector<Inflight>& inflight) {
  const auto now = Clock::now();
  // Counters update before respond() fulfills the promise, so a caller
  // that .get()s the response and immediately snapshots counters() sees
  // its own outcome reflected.
  if (now >= request.deadline) {
    ServeMetrics::get().timed_out.inc();
    n_timed_out_.fetch_add(1, std::memory_order_relaxed);
    admission_->finished(Status::kTimedOut);
    respond(request, Status::kTimedOut, {}, now);
    return;
  }
  align::DecodeSession* session = arena_.acquire(request.insight);
  if (session == nullptr) {
    // Reachable only when arena_capacity is configured below max_inflight
    // (tests do this deliberately); rejected as admission backpressure.
    admission_->finished(Status::kRejected);
    respond(request, Status::kRejected, {}, now, 0,
            std::max(1.0, admission_->estimated_wait_ms()));
    return;
  }
  auto& recorder = obs::TraceRecorder::instance();
  if (recorder.enabled()) {
    recorder.async_instant(
        "serve.admit", "serve", request.trace_id,
        {{"queue_ms", ms_between(request.submitted_at, now)}});
  }
  Inflight flight;
  flight.request = std::move(request);
  flight.session = session;
  flight.decoder = std::make_unique<align::BeamDecoder>(
      *session, flight.request.beam_width);
  flight.admitted_at = now;
  // Pin the version this request decodes on: even if the batcher swaps
  // next tick and the registry GCs, the weights outlive this flight.
  flight.pin = active_;
  inflight.push_back(std::move(flight));
  inflight_now_.store(static_cast<int>(inflight.size()),
                      std::memory_order_relaxed);
  std::lock_guard lock(counters_mutex_);
  if (first_admit_ == Clock::time_point{}) first_admit_ = now;
  peak_inflight_ = std::max<std::uint64_t>(peak_inflight_, inflight.size());
}

void RecommendService::finish(Inflight& flight, Status status) {
  std::vector<align::BeamCandidate> candidates;
  if (status == Status::kOk) candidates = flight.decoder->result();
  const std::uint64_t served_version =
      flight.pin != nullptr ? flight.pin->version() : 0;
  // Latency is measured before the registry sees the outcome, so the SLO
  // engine judges the same number the client will be told.
  const auto done = Clock::now();
  const double latency = ms_between(flight.request.submitted_at, done);
  if (status == Status::kOk && registry_ != nullptr && flight.pin != nullptr &&
      !candidates.empty()) {
    registry_->record_outcome(served_version, candidates.front().log_prob,
                              latency);
  }

  // Update the counters before fulfilling the promise: a caller that
  // .get()s the final response and immediately snapshots counters() must
  // see its own completion reflected.
  if (status == Status::kOk) {
    ServeMetrics& metrics = ServeMetrics::get();
    metrics.completed.inc();
    n_completed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(counters_mutex_);
    last_complete_ = done;
    latency_sketch_.observe(latency);
  } else if (status == Status::kTimedOut) {
    ServeMetrics::get().timed_out.inc();
    n_timed_out_.fetch_add(1, std::memory_order_relaxed);
  }
  admission_->finished(status, ms_between(flight.admitted_at, done));

  respond(flight.request, status, std::move(candidates), flight.admitted_at,
          served_version);
  arena_.release(flight.session);
  flight.session = nullptr;
  // The pin drops with the Inflight; a retired version's last pin makes it
  // GC-eligible on the registry's next publish/gc pass.
}

void RecommendService::maybe_swap() {
  if (registry_ == nullptr) return;
  if (registry_->current_version() ==
      active_version_.load(std::memory_order_relaxed)) {
    return;
  }
  std::shared_ptr<const ModelVersion> next = registry_->current();
  if (next == nullptr || (active_ != nullptr && next == active_)) return;
  VPR_TRACE_SPAN("registry.swap", "serve",
                 obs::TraceArgs{{"version", next->version()}});
  const double adoption_ms = ms_between(next->published_at(), Clock::now());
  active_ = std::move(next);
  model_ = &active_->model();
  arena_.set_model(*model_);
  active_version_.store(active_->version(), std::memory_order_relaxed);
  n_swaps_.fetch_add(1, std::memory_order_relaxed);
  ServeMetrics& metrics = ServeMetrics::get();
  metrics.swaps.inc();
  metrics.swap_ms.observe(adoption_ms);
  std::lock_guard lock(counters_mutex_);
  swap_ms_sum_ += adoption_ms;
  swap_ms_max_ = std::max(swap_ms_max_, adoption_ms);
}

void RecommendService::batcher_loop() {
  obs::TraceRecorder::instance().set_thread_name("batcher");
  std::vector<Inflight> inflight;
  std::vector<align::BatchStep> steps;
  std::vector<std::size_t> slice_begin;
  std::vector<std::size_t> group_begin;
  std::vector<double> probs;

  // Records where the batcher is for pause(); a kWork call parks first
  // while paused.
  const auto reach = [this](BatcherAt at) {
    std::unique_lock lock(pause_mutex_);
    if (at == BatcherAt::kWork && paused_) {
      batcher_at_ = BatcherAt::kParked;
      pause_cv_.notify_all();
      pause_cv_.wait(lock, [this] { return !paused_; });
    }
    batcher_at_ = at;
    if (at != BatcherAt::kWork) pause_cv_.notify_all();
  };

  while (true) {
    reach(BatcherAt::kWork);
    // Batch boundary: adopt a newly published version before admitting
    // anything, so every request in this tick's admissions pins it.
    maybe_swap();

    Request request;
    while (static_cast<int>(inflight.size()) < config_.max_inflight &&
           admission_->try_pop(request)) {
      admit(std::move(request), inflight);
    }
    if (inflight.empty()) {
      reach(BatcherAt::kIdle);
      if (!admission_->pop(request)) break;  // closed and drained
      // Park before admitting if a pause landed while idle; the request's
      // deadline keeps running while held here.
      reach(BatcherAt::kWork);
      maybe_swap();
      admit(std::move(request), inflight);
      continue;
    }

    // Expire deadlines between ticks.
    const auto now = Clock::now();
    std::erase_if(inflight, [&](Inflight& flight) {
      if (now < flight.request.deadline) return false;
      finish(flight, Status::kTimedOut);
      return true;
    });
    inflight_now_.store(static_cast<int>(inflight.size()),
                        std::memory_order_relaxed);
    if (inflight.empty()) continue;

    // Gather every in-flight decoder's pending lane queries into one batch.
    steps.clear();
    slice_begin.clear();
    group_begin.clear();
    const ModelVersion* group_pin = nullptr;
    for (const Inflight& flight : inflight) {
      slice_begin.push_back(steps.size());
      // A tick right after a swap can hold lanes pinned to different
      // versions (the old cohort still draining, fresh admissions on the
      // new weights). step_batch requires one model per call, so mark the
      // boundaries; pins are monotone in admission order, so equal pins
      // are always contiguous.
      if (group_begin.empty() || flight.pin.get() != group_pin) {
        group_begin.push_back(steps.size());
        group_pin = flight.pin.get();
      }
      for (const align::BeamDecoder::StepRef& ref :
           flight.decoder->pending()) {
        steps.push_back({flight.session, ref.lane, ref.prev_decision});
      }
    }
    probs.resize(steps.size());
    {
      VPR_TRACE_SPAN("serve.tick", "serve",
                     obs::TraceArgs{{"lanes", steps.size()},
                                    {"inflight", inflight.size()}});
      auto& recorder = obs::TraceRecorder::instance();
      if (recorder.enabled()) {
        // One marker per in-flight request, on its own correlation track.
        for (std::size_t i = 0; i < inflight.size(); ++i) {
          const std::size_t end =
              i + 1 < slice_begin.size() ? slice_begin[i + 1] : steps.size();
          recorder.async_instant(
              "serve.batch", "serve", inflight[i].request.trace_id,
              {{"lanes", end - slice_begin[i]}});
        }
      }
      // One batched forward per same-version group (one group outside a
      // swap window, so the common case is a single full-width call).
      for (std::size_t g = 0; g < group_begin.size(); ++g) {
        const std::size_t begin = group_begin[g];
        const std::size_t end =
            g + 1 < group_begin.size() ? group_begin[g + 1] : steps.size();
        if (end == begin) continue;
        align::DecodeSession::step_batch(
            std::span<const align::BatchStep>(steps).subspan(begin,
                                                             end - begin),
            probs.data() + begin);
        ServeMetrics::get().ticks.inc();
        ServeMetrics::get().batched_lanes.inc(end - begin);
        n_ticks_.fetch_add(1, std::memory_order_relaxed);
        n_batched_lanes_.fetch_add(end - begin, std::memory_order_relaxed);
      }

      // Scatter probability slices back and advance each beam.
      for (std::size_t i = 0; i < inflight.size(); ++i) {
        const std::size_t begin = slice_begin[i];
        const std::size_t end =
            i + 1 < slice_begin.size() ? slice_begin[i + 1] : steps.size();
        inflight[i].decoder->apply(
            std::span<const double>(probs).subspan(begin, end - begin));
      }
    }

    std::erase_if(inflight, [&](Inflight& flight) {
      if (!flight.decoder->done()) return false;
      finish(flight, Status::kOk);
      return true;
    });
    inflight_now_.store(static_cast<int>(inflight.size()),
                        std::memory_order_relaxed);
  }

  // Queue closed and drained; inflight is empty here by construction (the
  // loop only reaches the blocking pop when nothing is in flight).
  reach(BatcherAt::kExited);
}

}  // namespace vpr::serve
