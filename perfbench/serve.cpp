// serve: recommend requests over loopback TCP to an in-process,
// registry-backed serve::Server, from a closed-loop client with a
// pipelined window, while new model versions are published every
// kPublishEvery completions.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "align/beam.h"
#include "bench.h"
#include "obs/trace.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace pb {
namespace {

using vpr::align::BeamCandidate;
using vpr::align::ModelConfig;
using vpr::align::RecipeModel;
using vpr::serve::ModelRegistry;
using vpr::serve::Server;
using vpr::serve::Status;
namespace wire = vpr::serve::wire;

constexpr int kReplicas = 2;
constexpr int kMaxInflight = 8;
// One connection with 40 pipelined requests keeps more in flight than
// replicas x max_inflight = 16, so a queue builds.
constexpr int kWindow = 40;
constexpr std::uint64_t kPublishEvery = 2000;
// The warm-up is a fixed number of requests, so set-up does the same work
// on every run.
constexpr std::uint64_t kWarmupRequests = 2000;
constexpr int kInsights = 24;
constexpr int kVersionWeights = 8;  // distinct seeded weight sets, cycled
constexpr int kWidths[] = {2, 4, 5, 8};

/// Everything the requests and publishes are made from.
struct Inputs {
  std::vector<std::vector<double>> insights;
  std::vector<std::unique_ptr<RecipeModel>> weights;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  const ModelConfig mc;
  vpr::util::Rng rng{vpr::util::hash_combine(seed, 0x1a5ULL)};
  for (int i = 0; i < kInsights; ++i) {
    std::vector<double> iv(static_cast<std::size_t>(mc.insight_dim));
    for (double& v : iv) v = rng.normal() * 0.5;
    iv.back() = 1.0;  // the bias feature, as in extracted insight vectors
    in.insights.push_back(std::move(iv));
  }
  for (int v = 0; v < kVersionWeights; ++v) {
    vpr::util::Rng wrng{vpr::util::hash_combine(seed, 0x5e1ULL + v)};
    in.weights.push_back(std::make_unique<RecipeModel>(mc, wrng));
  }
  return in;
}

/// The requests of one phase: (insight index, beam width) pairs.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, std::uint64_t phase)
      : rng_(vpr::util::hash_combine(seed, phase)) {}
  std::pair<int, int> next() {
    const int insight = static_cast<int>(rng_.index(kInsights));
    const int width = kWidths[rng_.index(std::size(kWidths))];
    return {insight, width};
  }

 private:
  vpr::util::Rng rng_;
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("perfbench: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    throw std::runtime_error("perfbench: cannot connect to the server");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// Weights, registry, server and the client connection.
struct Fleet {
  Inputs inputs;
  std::shared_ptr<ModelRegistry> registry;
  std::unique_ptr<Server> server;
  int fd = -1;
  /// Registry version -> index into inputs.weights.
  std::mutex versions_mutex;
  std::map<std::uint64_t, std::size_t> version_weights;
  std::uint64_t publishes = 0;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    if (fd >= 0) ::close(fd);
    server.reset();
  }

  /// Publishes the next weight set; adds the publish call's time to
  /// `publish_ms`.
  void publish(double& publish_ms) {
    const std::size_t w = publishes++ % inputs.weights.size();
    const auto state = inputs.weights[w]->state();
    std::uint64_t v = 0;
    {
      Span span{"bench.registry.publish", publish_ms};
      v = registry->publish(state, "perfbench");
    }
    std::lock_guard lk{versions_mutex};
    version_weights[v] = w;
  }
};

std::unique_ptr<Fleet> make_fleet(std::uint64_t seed) {
  auto fleet = std::make_unique<Fleet>();
  fleet->inputs = make_inputs(seed);
  fleet->registry = std::make_shared<ModelRegistry>(ModelConfig{});
  double publish_ms = 0.0;
  fleet->publish(publish_ms);
  vpr::serve::ServerConfig config;
  config.router.replicas = kReplicas;
  config.router.replica.max_inflight = kMaxInflight;
  fleet->server = std::make_unique<Server>(fleet->registry, config);
  fleet->fd = connect_loopback(fleet->server->port());
  return fleet;
}

/// Hash of a candidate list's exact bits (recipe sets and log-probability
/// bit patterns), what the client keeps of a response for the bitwise
/// check.
std::uint64_t digest(const std::vector<BeamCandidate>& cands) {
  std::uint64_t h = cands.size();
  for (const auto& c : cands) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &c.log_prob, sizeof bits);
    h = vpr::util::hash_combine(vpr::util::hash_combine(h, c.recipes.to_u64()),
                                bits);
  }
  return h;
}

/// (model version, insight index, beam width, candidate digest).
using OkKey = std::tuple<std::uint64_t, int, int, std::uint64_t>;

/// What the client saw, aggregated as responses arrive: one float per
/// response plus counts, so peak_rss_mb measures the server rather than
/// the client's records.
struct Tally {
  std::vector<float> rtt_ms;  // every response
  // Per kOk response, in traced runs only.
  std::vector<float> queue_ms, decode_ms, net_ms;
  std::map<OkKey, std::uint64_t> ok;
  std::uint64_t rejected = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t other = 0;  // any other non-kOk status
  std::uint64_t lost = 0;   // no response: transport error
};

struct Drive {
  Tally tally;
  std::uint64_t sent = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double publish_ms = 0.0;
  int publishes = 0;
};

/// Closed loop on the connection: keep kWindow requests in flight and send
/// the next as each response arrives, until `seconds` have passed or
/// `max_requests` are sent; then drain. With `publish`, a publisher thread
/// installs the next version every kPublishEvery completions.
Drive drive(Fleet& fleet, std::uint64_t seed, std::uint64_t phase,
            double seconds, std::uint64_t max_requests, bool publish) {
  Drive out;
  const bool tracing = vpr::obs::TraceRecorder::instance().enabled();
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t completed = 0;  // guarded by mu
  bool done = false;            // guarded by mu

  std::thread publisher;
  if (publish) {
    publisher = std::thread([&] {
      for (std::uint64_t k = 1;; ++k) {
        std::unique_lock lk{mu};
        cv.wait(lk, [&] { return done || completed >= k * kPublishEvery; });
        if (done) return;
        lk.unlock();
        fleet.publish(out.publish_ms);
        ++out.publishes;
      }
    });
  }

  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const auto stop = t0 + std::chrono::duration<double>(seconds);
  RequestStream stream{seed, phase};
  struct Sent {
    int insight = 0;
    int width = 0;
    Clock::time_point at;
  };
  std::unordered_map<std::uint64_t, Sent> outstanding;
  Tally& tally = out.tally;
  std::vector<std::uint8_t> buf;
  std::vector<std::uint8_t> payload;
  bool alive = true;
  while (alive) {
    while (outstanding.size() < static_cast<std::size_t>(kWindow) &&
           out.sent < max_requests && Clock::now() < stop) {
      const auto [insight, width] = stream.next();
      wire::RequestFrame req;
      req.beam_width = width;
      req.client_tag = ++out.sent;
      req.insight = fleet.inputs.insights[static_cast<std::size_t>(insight)];
      if (tracing) {
        req.trace_id = vpr::obs::TraceRecorder::next_id();
        vpr::obs::TraceRecorder::instance().async_begin("bench.request",
                                                        "serve", req.trace_id);
      }
      buf.clear();
      wire::encode(req, buf);
      outstanding.emplace(req.client_tag, Sent{insight, width, Clock::now()});
      if (!wire::write_frame(fleet.fd, buf)) {
        alive = false;
        break;
      }
    }
    if (outstanding.empty()) break;
    if (!alive || !wire::read_frame(fleet.fd, payload)) break;
    const auto resp = wire::decode_response(payload);
    if (!resp) break;
    const auto it = outstanding.find(resp->client_tag);
    if (it == outstanding.end()) break;
    const Sent sent = it->second;
    outstanding.erase(it);
    const double rtt = ms_since(sent.at);
    tally.rtt_ms.push_back(static_cast<float>(rtt));
    switch (resp->status) {
      case Status::kOk:
        ++tally.ok[{resp->model_version, sent.insight, sent.width,
                    digest(resp->candidates)}];
        if (tracing) {
          tally.queue_ms.push_back(static_cast<float>(resp->queue_ms));
          tally.decode_ms.push_back(
              static_cast<float>(resp->total_ms - resp->queue_ms));
          tally.net_ms.push_back(static_cast<float>(rtt - resp->total_ms));
        }
        break;
      case Status::kRejected:
        ++tally.rejected;
        break;
      case Status::kTimedOut:
        ++tally.timed_out;
        break;
      default:
        ++tally.other;
    }
    if (tracing) {
      vpr::obs::TraceRecorder::instance().async_end("bench.request", "serve",
                                                    resp->trace_id);
    }
    std::lock_guard lk{mu};
    if (++completed % kPublishEvery == 0) cv.notify_all();
  }
  // Requests still outstanding after a transport error are lost ops.
  tally.lost += outstanding.size();
  out.wall_s = ms_since(t0) / 1e3;
  out.cpu_s = process_cpu_s() - cpu0;
  {
    std::lock_guard lk{mu};
    done = true;
  }
  cv.notify_all();
  if (publisher.joinable()) publisher.join();
  return out;
}

std::vector<double> widen(const std::vector<float>& v) {
  return {v.begin(), v.end()};
}

Phase to_phase(const Drive& d) {
  const Tally& t = d.tally;
  Phase p;
  p.latency_ms = widen(t.rtt_ms);
  p.attempted = d.sent;
  for (const auto& [key, n] : t.ok) p.ok += n;
  p.failed = t.rejected + t.timed_out + t.other + t.lost;
  p.wall_s = d.wall_s;
  p.cpu_s = d.cpu_s;
  return p;
}

/// Bitwise check of every kOk response against a local beam_search on
/// the weights of the version that served it. Mismatches become failed
/// ops.
void verify(Fleet& fleet, const Drive& d, Phase& phase, Report& report) {
  // Versions cycle through the weight sets, so the oracle is memoized by
  // (weight set, insight, width).
  std::map<std::tuple<std::size_t, int, int>, std::uint64_t> oracle;
  std::uint64_t bad = 0;
  for (const auto& [key, n] : d.tally.ok) {
    const auto& [version, insight, width, candidates] = key;
    const auto it = fleet.version_weights.find(version);
    if (it == fleet.version_weights.end()) {
      bad += n;
      continue;
    }
    auto [o, fresh] = oracle.try_emplace({it->second, insight, width}, 0);
    if (fresh) {
      o->second = digest(vpr::align::beam_search(
          *fleet.inputs.weights[it->second],
          fleet.inputs.insights[static_cast<std::size_t>(insight)], width));
    }
    if (o->second != candidates) bad += n;
  }
  if (bad > 0) {
    phase.fail_ok(bad);
    report.fail_check(std::to_string(bad) +
                          " serve responses differ from beam_search on their version",
                      nullptr);
  }
}

// Request streams: the warm-up draws its own; the timed phase (and both
// halves of a traced run) draw the same one.
constexpr std::uint64_t kWarmupPhase = 0;
constexpr std::uint64_t kTimedPhase = 1;

}  // namespace

std::string describe_serve_inputs(std::uint64_t seed) {
  std::ostringstream os;
  os.precision(17);
  const Inputs in = make_inputs(seed);
  for (const auto& iv : in.insights) os << iv[0] << ' ' << iv[1] << '\n';
  for (const auto& w : in.weights) os << w->state()[0] << '\n';
  RequestStream stream{seed, kTimedPhase};
  for (int j = 0; j < 64; ++j) {
    const auto [insight, width] = stream.next();
    os << insight << ':' << width << ' ';
  }
  os << '\n';
  return os.str();
}

Report run_serve(const Options& opts) {
  const auto start = Clock::now();
  Report report;
  const auto fleet = make_fleet(opts.seed);
  const Drive warmup = drive(*fleet, opts.seed, kWarmupPhase, 60.0,
                             kWarmupRequests, false);
  Phase warmup_phase = to_phase(warmup);
  const bool warmup_ok = warmup_phase.failed == 0 &&
                         warmup_phase.ok == kWarmupRequests &&
                         warmup_phase.attempted == kWarmupRequests;
  if (end_setup(report, opts, start, warmup_ok)) return report;
  verify(*fleet, warmup, warmup_phase, report);
  auto& router = fleet->server->router();
  constexpr auto kUnbounded = ~std::uint64_t{0};

  if (!opts.trace) {
    const Drive d = drive(*fleet, opts.seed, kTimedPhase, opts.seconds,
                          kUnbounded, true);
    report.phase = to_phase(d);
    verify(*fleet, d, report.phase, report);
    return report;
  }

  const Drive untraced = drive(*fleet, opts.seed, kTimedPhase,
                               opts.seconds / 2, kUnbounded, true);
  Phase untraced_phase = to_phase(untraced);
  verify(*fleet, untraced, untraced_phase, report);
  report.require_clean(untraced_phase);

  const auto before = router.counters();
  start_tracing();
  const Drive d = drive(*fleet, opts.seed, kTimedPhase, opts.seconds / 2,
                        kUnbounded, true);
  vpr::obs::TraceRecorder::instance().set_enabled(false);
  const auto after = router.counters();
  report.phase = to_phase(d);
  verify(*fleet, d, report.phase, report);
  set_trace_overhead(report, untraced_phase, report.phase);
  write_trace(opts);

  const auto queue = widen(d.tally.queue_ms);
  const auto decode = widen(d.tally.decode_ms);
  const auto net = widen(d.tally.net_ms);
  auto& m = report.per_layer;
  m["serve.queue_ms_p50"] = percentile(queue, 0.5);
  m["serve.queue_ms_p99"] = percentile(queue, 0.99);
  m["serve.decode_ms_p50"] = percentile(decode, 0.5);
  m["serve.net_ms_p50"] = percentile(net, 0.5);
  m["serve.net_ms_p99"] = percentile(net, 0.99);
  m["serve.rejected"] = static_cast<double>(d.tally.rejected);
  m["serve.timed_out"] = static_cast<double>(d.tally.timed_out);

  double ticks = 0, lanes = 0, swaps = 0, swap_ms = 0;
  double max_done = 0, min_done = 1e300;
  for (std::size_t r = 0; r < after.replica.size(); ++r) {
    const auto& a = after.replica[r];
    const auto& b = before.replica[r];
    ticks += static_cast<double>(a.ticks - b.ticks);
    lanes += static_cast<double>(a.batched_lanes - b.batched_lanes);
    const auto done = static_cast<double>(a.completed - b.completed);
    max_done = std::max(max_done, done);
    min_done = std::min(min_done, done);
    swaps += static_cast<double>(a.swaps - b.swaps);
    swap_ms += a.mean_swap_ms * static_cast<double>(a.swaps);
  }
  double all_swaps = 0;
  for (const auto& a : after.replica) all_swaps += static_cast<double>(a.swaps);
  m["serve.ticks"] = ticks;
  m["serve.batch_lanes_mean"] = ticks > 0 ? lanes / ticks : 0.0;
  m["serve.replica_skew"] = min_done > 0 ? max_done / min_done : 0.0;
  m["serve.swaps"] = swaps;
  m["serve.swap_ms_mean"] = all_swaps > 0 ? swap_ms / all_swaps : 0.0;
  m["registry.publish_ms"] = d.publishes > 0 ? d.publish_ms / d.publishes : 0.0;
  m["cpu_util"] = d.wall_s > 0 ? d.cpu_s / d.wall_s : 0.0;

  LayerTable table;
  table.title = "serve: mean client round trip per request";
  table.total = mean(report.phase.latency_ms);
  table.rows = {{"serve.queue", mean(queue)}, {"serve.decode", mean(decode)}};
  table.remainder = "serve.net";
  report.tables.push_back(table);
  return report;
}

}  // namespace pb
