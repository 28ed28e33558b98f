#include "serve/bench.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "align/beam.h"
#include "align/recipe_model.h"
#include "serve/admin.h"
#include "serve/client.h"
#include "serve/registry.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/json.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stats.h"

namespace vpr::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSuiteDesigns = kBenchSuiteDesigns;

bool candidates_bitwise_equal(const std::vector<align::BeamCandidate>& a,
                              const std::vector<align::BeamCandidate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].recipes.to_u64() != b[i].recipes.to_u64()) return false;
    if (a[i].log_prob != b[i].log_prob) return false;
  }
  return true;
}

/// `key value` per line; '#' starts a comment. Missing file => empty map
/// (first run, no warnings). Same candidate-path scheme as the flow
/// baseline: ctest runs benchmarks from build subdirectories.
std::unordered_map<std::string, double> read_serve_baseline() {
  std::unordered_map<std::string, double> baseline;
  for (const char* candidate :
       {"bench/BENCH_serve_baseline.txt", "../bench/BENCH_serve_baseline.txt",
        "../../bench/BENCH_serve_baseline.txt", "BENCH_serve_baseline.txt"}) {
    std::ifstream is{candidate};
    if (!is) continue;
    std::string line;
    while (std::getline(is, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls{line};
      std::string key;
      double value = 0.0;
      if (ls >> key >> value) baseline[key] = value;
    }
    break;
  }
  return baseline;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Per-version beam_search oracle, memoized per (version, suite design).
/// It pins every version it is told about, so the weights outlive the
/// registry's GC (real replicas pin through in-flight requests instead).
class VersionOracle {
 public:
  VersionOracle(const std::vector<std::vector<double>>& insights,
                int beam_width)
      : insights_(insights), beam_width_(beam_width) {}

  void pin(const ModelRegistry& registry, std::uint64_t v) {
    pinned_.emplace(v, registry.version(v));
  }
  /// True when `response` is kOk, carries a version, and matches a lone
  /// beam_search on that version's weights bitwise.
  bool matches(const Response& response, int design) {
    if (response.status != Status::kOk || response.model_version == 0) {
      return false;
    }
    const auto key = std::make_pair(response.model_version, design);
    auto it = oracle_.find(key);
    if (it == oracle_.end()) {
      it = oracle_
               .emplace(key, align::beam_search(
                                 pinned_.at(response.model_version)->model(),
                                 insights_[static_cast<std::size_t>(design)],
                                 beam_width_))
               .first;
    }
    return candidates_bitwise_equal(response.candidates, it->second);
  }

 private:
  const std::vector<std::vector<double>>& insights_;
  int beam_width_;
  std::map<std::uint64_t, std::shared_ptr<const ModelVersion>> pinned_;
  std::map<std::pair<std::uint64_t, int>, std::vector<align::BeamCandidate>>
      oracle_;
};

}  // namespace

/// The same spread (normal * 0.5) the decode tests use, with the bias
/// feature pinned to 1.0 like real extracted insight vectors.
std::vector<std::vector<double>> bench_suite_insights(int insight_dim) {
  std::vector<std::vector<double>> insights;
  insights.reserve(kSuiteDesigns);
  for (int design = 1; design <= kSuiteDesigns; ++design) {
    util::Rng rng{util::hash_combine(0x5e27eb43ULL,
                                     static_cast<std::uint64_t>(design))};
    std::vector<double> iv(static_cast<std::size_t>(insight_dim));
    for (double& v : iv) v = rng.normal() * 0.5;
    iv.back() = 1.0;
    insights.push_back(std::move(iv));
  }
  return insights;
}

int run_serve_bench(const ServeBenchOptions& opts) {
  util::Rng rng{7};
  const align::RecipeModel model{align::ModelConfig{}, rng};
  const auto insights = bench_suite_insights(model.config().insight_dim);

  // Per-design oracle: a fresh, lone beam_search. Every serial and batched
  // response must match it bitwise.
  std::vector<std::vector<align::BeamCandidate>> expected;
  expected.reserve(insights.size());
  for (const auto& iv : insights) {
    expected.push_back(align::beam_search(model, iv, opts.beam_width));
  }

  bool bitwise_match = true;

  // --- serial baseline: one request at a time, fresh session each --------
  double serial_ms = 0.0;
  for (int sweep = 0; sweep < opts.sweeps; ++sweep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < opts.requests; ++i) {
      const int k = i % kSuiteDesigns;
      const auto out = align::beam_search(model, insights[k], opts.beam_width);
      bitwise_match = bitwise_match && candidates_bitwise_equal(out, expected[k]);
    }
    const double sweep_ms = ms_since(t0);
    if (sweep == 0 || sweep_ms < serial_ms) serial_ms = sweep_ms;
  }

  // Every service and fleet below runs the bench's concurrency and width.
  const auto service_config = [&](std::size_t queue_capacity) {
    ServiceConfig config;
    config.max_inflight = opts.concurrency;
    config.max_beam_width = opts.beam_width;
    config.queue_capacity = queue_capacity;
    return config;
  };
  // All n requests in flight at once through `submit`; folds the bitwise
  // check into bitwise_match and returns the wall time of the sweep.
  const auto timed_sweep = [&](int n, const auto& submit) {
    std::vector<std::future<Response>> futures;
    futures.reserve(static_cast<std::size_t>(n));
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i) {
      futures.push_back(submit(insights[i % kSuiteDesigns]));
    }
    for (int i = 0; i < n; ++i) {
      const Response response = futures[static_cast<std::size_t>(i)].get();
      bitwise_match = bitwise_match && response.status == Status::kOk &&
                      candidates_bitwise_equal(response.candidates,
                                               expected[i % kSuiteDesigns]);
    }
    return ms_since(t0);
  };

  // --- batched: all requests in flight through the micro-batcher ---------
  double batched_ms = 0.0;
  ServiceCounters counters;
  for (int sweep = 0; sweep < opts.sweeps; ++sweep) {
    RecommendService service{
        model,
        service_config(static_cast<std::size_t>(std::max(opts.requests, 1)))};
    const double sweep_ms =
        timed_sweep(opts.requests, [&](const std::vector<double>& iv) {
          return service.submit(iv, opts.beam_width);
        });
    if (sweep == 0 || sweep_ms < batched_ms) batched_ms = sweep_ms;
    counters = service.counters();
    service.stop();
  }

  const double serial_qps = 1000.0 * opts.requests / serial_ms;
  const double batched_qps = 1000.0 * opts.requests / batched_ms;
  const double speedup = serial_ms / batched_ms;

  // --- sharded: N replicas behind the router, at matching total load ----
  // Each replica runs the single-service concurrency, so the fleet carries
  // replicas x the in-flight load; aggregate QPS scales with physical
  // cores (each replica owns a batcher thread).
  const int router_requests = opts.requests * opts.replicas;
  double router_ms = 0.0;
  RouterCounters router_counters;
  for (int sweep = 0; sweep < opts.sweeps; ++sweep) {
    Router router{model, RouterConfig{.replicas = opts.replicas,
                                      .replica = service_config(opts.requests)}};
    const double sweep_ms =
        timed_sweep(router_requests, [&](const std::vector<double>& iv) {
          return router.submit(iv, opts.beam_width, Router::kNoDeadline,
                               Priority::kInteractive);
        });
    if (sweep == 0 || sweep_ms < router_ms) router_ms = sweep_ms;
    router_counters = router.counters();
    router.stop();
  }
  const double router_qps = 1000.0 * router_requests / router_ms;

  // --- overload: burst 2x aggregate queue capacity of mixed-priority ----
  // traffic through small queues; sheds must resolve immediately (before
  // the batchers even tick) while accepted interactive work completes
  // with a bounded p99.
  std::uint64_t overload_shed = 0;
  std::uint64_t overload_ok = 0;
  std::uint64_t shed_resolved_immediately = 0;
  double mean_retry_after_ms = 0.0;
  double accepted_p99_ms = 0.0;
  int overload_requests = 0;
  {
    // Tiny queues on purpose.
    Router router{model, RouterConfig{.replicas = opts.replicas,
                                      .replica = service_config(8)}};
    overload_requests = 2 * opts.replicas * 8;
    std::vector<std::future<Response>> futures;
    futures.reserve(static_cast<std::size_t>(overload_requests));
    for (int i = 0; i < overload_requests; ++i) {
      // Cycle the classes so every shed threshold is exercised.
      const auto priority = static_cast<Priority>(i % 3);
      futures.push_back(router.submit(insights[i % kSuiteDesigns],
                                      opts.beam_width, Router::kNoDeadline,
                                      priority));
      if (futures.back().wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        ++shed_resolved_immediately;
      }
    }
    std::vector<double> accepted_ms;
    for (auto& f : futures) {
      const Response response = f.get();
      if (response.status == Status::kOk) {
        ++overload_ok;
        accepted_ms.push_back(response.total_ms);
      } else if (response.status == Status::kRejected) {
        ++overload_shed;
        mean_retry_after_ms += response.retry_after_ms;
      }
    }
    if (overload_shed > 0) {
      mean_retry_after_ms /= static_cast<double>(overload_shed);
    }
    if (!accepted_ms.empty()) {
      accepted_p99_ms = util::percentile(accepted_ms, 99.0);
    }
    router.stop();
  }

  // --- hotswap: registry-backed service under publish churn --------------
  // The same traffic runs twice through a registry-backed service: once on
  // one published version (steady) and once with a fresh version published
  // every publish_every completions (churn). Every response is verified
  // bitwise against a beam_search oracle on the exact version that served
  // it — the version-pinning guarantee on real traffic — and churn QPS is
  // compared against steady QPS (the acceptance bar is within 10%).
  double hotswap_steady_ms = 0.0;
  double hotswap_churn_ms = 0.0;
  std::uint64_t hotswap_publishes = 0;
  std::uint64_t hotswap_swaps = 0;
  std::size_t hotswap_versions_served = 0;
  double hotswap_mean_swap_ms = 0.0;
  double hotswap_max_swap_ms = 0.0;
  bool hotswap_bitwise = true;
  util::Json hotswap_registry_json = util::Json::object();
  if (opts.publish_every > 0) {
    // Deterministic per-version weights: version v is the seeded model for
    // seed h(v), so the oracle can be rebuilt from the version id alone.
    const auto version_state = [](std::uint64_t v) {
      util::Rng vrng{util::hash_combine(0xa11c3a7ULL, v)};
      const align::RecipeModel vm{align::ModelConfig{}, vrng};
      return vm.state();
    };
    VersionOracle oracle{insights, opts.beam_width};

    // The steady-vs-churn ratio compares two ~10 ms runs, so a single
    // scheduler hiccup moves it by several points; min-of-N on both sides
    // cancels that noise while the real churn cost (publishes and swaps
    // landing mid-run) stays in every churn sweep.
    const int hotswap_sweeps = std::max(opts.sweeps, 5);
    for (int sweep = 0; sweep < hotswap_sweeps; ++sweep) {
      for (const bool churn : {false, true}) {
        auto registry = std::make_shared<ModelRegistry>(align::ModelConfig{});
        const auto publish_next = [&](const std::vector<double>& state) {
          oracle.pin(*registry, registry->publish(state, "bench"));
        };
        // Generating a version's weight vector is bench harness work, not
        // publish cost: build every state before the clock starts (on one
        // core a mid-run RecipeModel construction would be charged to the
        // churn number).
        const int publish_targets =
            churn ? opts.requests / opts.publish_every : 0;
        std::vector<std::vector<double>> states;
        states.reserve(static_cast<std::size_t>(publish_targets) + 1);
        for (int v = 1; v <= publish_targets + 1; ++v) {
          states.push_back(version_state(static_cast<std::uint64_t>(v)));
        }
        publish_next(states.front());  // v1: the steady-state weights
        RecommendService service{
            registry, service_config(static_cast<std::size_t>(
                          std::max(opts.requests, 1)))};
        std::vector<std::future<Response>> futures;
        futures.reserve(static_cast<std::size_t>(opts.requests));
        std::set<std::uint64_t> served;
        // Churn publishes ride a separate thread, gated on the drain
        // counter — the shape of a real deployment, where a tuner process
        // publishes alongside the server. The publisher sleeps on a
        // condition variable between targets (a polling wait would steal
        // batcher timeslices on a single-core machine and be charged to
        // churn_ms as scheduler noise, not swap cost).
        std::mutex drain_mutex;
        std::condition_variable drain_cv;
        int drained = 0;
        std::thread publisher;
        if (churn) {
          publisher = std::thread([&] {
            for (int k = 1; k <= publish_targets; ++k) {
              {
                std::unique_lock lock(drain_mutex);
                drain_cv.wait(lock, [&] {
                  return drained >= k * opts.publish_every;
                });
              }
              publish_next(states[static_cast<std::size_t>(k)]);
            }
          });
        }
        const auto t0 = Clock::now();
        for (int i = 0; i < opts.requests; ++i) {
          futures.push_back(
              service.submit(insights[i % kSuiteDesigns], opts.beam_width));
        }
        std::vector<Response> responses;
        responses.reserve(static_cast<std::size_t>(opts.requests));
        for (int i = 0; i < opts.requests; ++i) {
          responses.push_back(futures[static_cast<std::size_t>(i)].get());
          // Later requests pin newer versions while earlier ones are
          // still decoding.
          int drained_now = 0;
          {
            std::lock_guard lock(drain_mutex);
            drained_now = ++drained;
          }
          // Only wake the publisher at an actual publish boundary — a
          // notify per completion would context-switch it awake 34 times
          // on one core just to re-check the predicate and sleep again.
          if (churn && drained_now % opts.publish_every == 0) {
            drain_cv.notify_one();
          }
        }
        const double sweep_ms = ms_since(t0);
        if (publisher.joinable()) publisher.join();
        // Verify outside the timed region (the lazy oracle decodes are
        // bench bookkeeping, not serving work).
        for (int i = 0; i < opts.requests; ++i) {
          const Response& response = responses[static_cast<std::size_t>(i)];
          served.insert(response.model_version);
          hotswap_bitwise = hotswap_bitwise &&
                            oracle.matches(response, i % kSuiteDesigns);
        }
        if (churn) {
          if (sweep == 0 || sweep_ms < hotswap_churn_ms) {
            hotswap_churn_ms = sweep_ms;
          }
          const ServiceCounters sc = service.counters();
          hotswap_swaps = sc.swaps;
          hotswap_mean_swap_ms = sc.mean_swap_ms;
          hotswap_max_swap_ms = sc.max_swap_ms;
          hotswap_publishes = registry->published_total();
          hotswap_versions_served = served.size();
          hotswap_registry_json = registry->to_json();
        } else if (sweep == 0 || sweep_ms < hotswap_steady_ms) {
          hotswap_steady_ms = sweep_ms;
        }
        service.stop();
      }
    }
    bitwise_match = bitwise_match && hotswap_bitwise;
  }

  // --- rollback: SLO burn-rate rollback under a poisoned publish ---------
  // Warm a good version past the baseline-traffic floor, then publish a
  // deliberately degraded version (all-zero weights: every step decodes
  // the uniform distribution, so its top log pi is provably below any
  // seeded model's best path) and replay the same traffic. The registry's
  // burn-rate engine must quarantine the bad version and swap back to the
  // good one exactly once, while every response — including the ones that
  // finished pinned to the bad version — stays bitwise faithful to a
  // beam_search oracle on the exact version that served it.
  std::uint64_t rollback_rollbacks = 0;
  std::uint64_t rollback_served_on_bad = 0;
  bool rollback_exactly_one = true;
  bool rollback_bitwise = true;
  util::Json rollback_json = util::Json::object();
  if (opts.publish_every > 0) {
    RegistryConfig reg_config;
    reg_config.rollback.enabled = true;
    reg_config.rollback.min_requests = 16;
    reg_config.rollback.quality_drop = 0.01;
    auto registry =
        std::make_shared<ModelRegistry>(align::ModelConfig{}, reg_config);
    const std::uint64_t good_v = registry->publish(model.state(), "good");
    VersionOracle oracle{insights, opts.beam_width};
    oracle.pin(*registry, good_v);

    RecommendService service{
        registry, service_config(static_cast<std::size_t>(
                      std::max(2 * opts.requests, 32)))};
    // The baseline floor must be reachable with the configured traffic.
    const int warm_requests =
        std::max(opts.requests,
                 static_cast<int>(reg_config.rollback.min_requests));
    const auto run_phase = [&](int n) {
      std::vector<std::future<Response>> futures;
      futures.reserve(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        futures.push_back(
            service.submit(insights[i % kSuiteDesigns], opts.beam_width));
      }
      std::vector<Response> responses;
      responses.reserve(futures.size());
      for (auto& f : futures) responses.push_back(f.get());
      for (int i = 0; i < n; ++i) {
        rollback_bitwise =
            rollback_bitwise &&
            oracle.matches(responses[static_cast<std::size_t>(i)],
                           i % kSuiteDesigns);
      }
      return responses;
    };
    run_phase(warm_requests);  // good_v accumulates its baseline stats
    const std::vector<double> poisoned(registry->expected_params(), 0.0);
    const std::uint64_t bad_v = registry->publish(poisoned, "poisoned");
    oracle.pin(*registry, bad_v);
    const auto after = run_phase(std::max(opts.requests, 32));
    for (const Response& response : after) {
      if (response.model_version == bad_v) ++rollback_served_on_bad;
    }
    service.stop();

    rollback_rollbacks = registry->rollbacks();
    const auto quarantined = registry->quarantined();
    rollback_exactly_one =
        rollback_rollbacks == 1 &&
        registry->current_version() == good_v &&
        quarantined.size() == 1 && quarantined.front() == bad_v;
    bitwise_match = bitwise_match && rollback_bitwise;

    rollback_json["good_version"] = static_cast<double>(good_v);
    rollback_json["poisoned_version"] = static_cast<double>(bad_v);
    rollback_json["warm_requests"] = warm_requests;
    rollback_json["served_on_poisoned"] =
        static_cast<double>(rollback_served_on_bad);
    rollback_json["rollbacks"] = static_cast<double>(rollback_rollbacks);
    rollback_json["current_after"] =
        static_cast<double>(registry->current_version());
    util::Json qjson = util::Json::array();
    for (const std::uint64_t v : quarantined) {
      qjson.push_back(static_cast<double>(v));
    }
    rollback_json["quarantined"] = std::move(qjson);
    rollback_json["bitwise_match"] = rollback_bitwise;
    rollback_json["rollback_exactly_one"] = rollback_exactly_one;
    if (!rollback_exactly_one) {
      VPR_LOG(Error) << "BENCH_serve rollback: expected exactly one "
                        "automatic rollback to v" << good_v << ", got "
                     << rollback_rollbacks << " (current v"
                     << registry->current_version() << ")";
    }
    if (!rollback_bitwise) {
      VPR_LOG(Error) << "BENCH_serve rollback: responses are not bitwise "
                        "identical to the per-version beam_search oracle";
    }
  }

  // --- admin: live scrape overhead ---------------------------------------
  // Stand up a real TCP server with the admin plane on ephemeral ports and
  // run the network load generator twice at identical settings — idle, and
  // with a scraper thread polling /metrics + /healthz every 25 ms (still
  // hundreds of times hotter than a production scrape interval). The
  // admin plane must cost the serving path under 1% QPS; on a single-core
  // machine the scraper necessarily steals decode cycles, so the gate is
  // a warning, not a failure.
  double admin_idle_qps = 0.0;
  double admin_scraped_qps = 0.0;
  double admin_overhead_fraction = 0.0;
  std::atomic<std::uint64_t> admin_scrapes{0};
  std::atomic<bool> admin_ok{true};
  {
    ServerConfig server_config;
    server_config.router.replicas = 2;
    server_config.router.replica = service_config(256);
    server_config.port = 0;
    server_config.admin_port = 0;
    Server server{model, server_config};

    ClientBenchOptions cb;
    cb.port = server.port();
    cb.connections = 4;
    cb.window = 8;
    cb.requests = std::max(128, 2 * opts.requests);
    cb.beam_width = opts.beam_width;
    cb.verify = false;  // bitwise faithfulness is proven by the sweeps above
    cb.quiet = true;
    const auto best_qps = [&](bool scraped) {
      double best = 0.0;
      for (int sweep = 0; sweep < opts.sweeps; ++sweep) {
        // The scraper polls every 25 ms until told to stop; the wait
        // returns at once when it is.
        std::mutex scraper_mutex;
        std::condition_variable scraper_cv;
        bool stop_scraper = false;
        std::thread scraper;
        if (scraped) {
          scraper = std::thread([&] {
            std::unique_lock lock(scraper_mutex);
            while (!stop_scraper) {
              lock.unlock();
              const auto metrics =
                  http_get("127.0.0.1", server.admin_port(), "/metrics");
              const auto health =
                  http_get("127.0.0.1", server.admin_port(), "/healthz");
              if (!metrics.has_value() || metrics->status != 200 ||
                  metrics->body.find("# TYPE") == std::string::npos ||
                  !health.has_value() || health->status != 200) {
                admin_ok = false;
              }
              ++admin_scrapes;
              lock.lock();
              scraper_cv.wait_for(lock, std::chrono::milliseconds(25),
                                  [&] { return stop_scraper; });
            }
          });
        }
        ClientBenchResult result;
        if (run_client_bench(cb, &result) != 0 || result.ok == 0) {
          admin_ok = false;
        }
        if (scraped) {
          {
            std::lock_guard lock(scraper_mutex);
            stop_scraper = true;
          }
          scraper_cv.notify_all();
          scraper.join();
        }
        best = std::max(best, result.qps);
      }
      return best;
    };
    admin_idle_qps = best_qps(false);
    admin_scraped_qps = best_qps(true);
    if (admin_idle_qps > 0.0) {
      admin_overhead_fraction =
          std::max(0.0, 1.0 - admin_scraped_qps / admin_idle_qps);
    }
    server.stop();
    if (!admin_ok) {
      VPR_LOG(Warn) << "BENCH_serve admin: scrape or load-generator probe "
                       "failed during the overhead sweep";
    }
    if (admin_overhead_fraction > 0.01) {
      VPR_LOG(Warn) << "BENCH_serve admin: scraping cost "
                    << 100.0 * admin_overhead_fraction
                    << "% QPS (acceptance bar: under 1%)";
    }
  }

  util::Json root = util::Json::object();
  root["requests"] = opts.requests;
  root["concurrency"] = opts.concurrency;
  root["beam_width"] = opts.beam_width;
  root["suite_designs"] = kSuiteDesigns;
  root["sweeps"] = opts.sweeps;
  // QPS numbers are only comparable across machines with this alongside.
  root["hardware_concurrency"] =
      static_cast<double>(std::thread::hardware_concurrency());
  root["serial_ms"] = serial_ms;
  root["batched_ms"] = batched_ms;
  root["serial_qps"] = serial_qps;
  root["batched_qps"] = batched_qps;
  root["speedup"] = speedup;
  root["bitwise_match"] = bitwise_match;
  root["service"] = counters.to_json();

  util::Json router_json = util::Json::object();
  router_json["replicas"] = opts.replicas;
  router_json["requests"] = router_requests;
  router_json["router_ms"] = router_ms;
  router_json["router_qps"] = router_qps;
  router_json["qps_vs_serial"] = router_qps / serial_qps;
  router_json["qps_vs_single_replica"] = router_qps / batched_qps;
  router_json["counters"] = router_counters.to_json();
  util::Json overload = util::Json::object();
  overload["requests"] = overload_requests;
  overload["ok"] = static_cast<double>(overload_ok);
  overload["shed"] = static_cast<double>(overload_shed);
  overload["shed_resolved_immediately"] =
      static_cast<double>(shed_resolved_immediately);
  overload["mean_retry_after_ms"] = mean_retry_after_ms;
  overload["accepted_p99_ms"] = accepted_p99_ms;
  router_json["overload"] = std::move(overload);
  root["router"] = std::move(router_json);

  if (opts.publish_every > 0) {
    const double hotswap_steady_qps =
        hotswap_steady_ms > 0.0 ? 1000.0 * opts.requests / hotswap_steady_ms
                                : 0.0;
    const double hotswap_churn_qps =
        hotswap_churn_ms > 0.0 ? 1000.0 * opts.requests / hotswap_churn_ms
                               : 0.0;
    const double qps_ratio = hotswap_steady_qps > 0.0
                                 ? hotswap_churn_qps / hotswap_steady_qps
                                 : 0.0;
    util::Json hotswap = util::Json::object();
    hotswap["publish_every"] = opts.publish_every;
    hotswap["steady_ms"] = hotswap_steady_ms;
    hotswap["churn_ms"] = hotswap_churn_ms;
    hotswap["steady_qps"] = hotswap_steady_qps;
    hotswap["churn_qps"] = hotswap_churn_qps;
    hotswap["qps_ratio"] = qps_ratio;
    hotswap["publishes"] = static_cast<double>(hotswap_publishes);
    hotswap["swaps"] = static_cast<double>(hotswap_swaps);
    hotswap["versions_served"] =
        static_cast<double>(hotswap_versions_served);
    hotswap["mean_swap_ms"] = hotswap_mean_swap_ms;
    hotswap["max_swap_ms"] = hotswap_max_swap_ms;
    hotswap["bitwise_match"] = hotswap_bitwise;
    hotswap["registry"] = std::move(hotswap_registry_json);
    root["hotswap"] = std::move(hotswap);
    if (qps_ratio < 0.9) {
      VPR_LOG(Warn) << "BENCH_serve hotswap: churn QPS is " << qps_ratio
                    << "x steady-state (acceptance bar: within 10%)";
    }
    if (!hotswap_bitwise) {
      VPR_LOG(Error) << "BENCH_serve hotswap: responses are not bitwise "
                        "identical to the per-version beam_search oracle";
    }
    root["rollback"] = std::move(rollback_json);
  }

  util::Json admin_json = util::Json::object();
  admin_json["idle_qps"] = admin_idle_qps;
  admin_json["scraped_qps"] = admin_scraped_qps;
  admin_json["overhead_fraction"] = admin_overhead_fraction;
  admin_json["scrapes"] =
      static_cast<double>(admin_scrapes.load(std::memory_order_relaxed));
  admin_json["ok"] = admin_ok.load(std::memory_order_relaxed);
  root["admin"] = std::move(admin_json);

  // Diagnostics go through the logger (whole lines, serialized) instead of
  // raw fprintf, so they cannot shear the stdout report or each other.
  const auto baseline = read_serve_baseline();
  const auto warn_slower = [&](const std::string& key, double current_qps) {
    const auto it = baseline.find(key);
    if (it == baseline.end()) return;
    if (current_qps < it->second / 1.25) {
      VPR_LOG(Warn) << "BENCH_serve regression: " << key << " = "
                    << current_qps << " req/s vs baseline " << it->second
                    << " req/s (<1/1.25x)";
    }
  };
  warn_slower("serve_batched_qps", batched_qps);
  warn_slower("serve_serial_qps", serial_qps);
  warn_slower("serve_router_qps", router_qps);
  if (opts.publish_every > 0 && hotswap_churn_ms > 0.0) {
    warn_slower("serve_hotswap_churn_qps",
                1000.0 * opts.requests / hotswap_churn_ms);
  }
  // Echo the committed baseline into the JSON so a before/after is
  // machine-readable from the artifact alone (kernel-dispatch PRs compare
  // single-replica QPS against the pre-change number recorded here).
  if (!baseline.empty()) {
    util::Json before = util::Json::object();
    for (const auto& [key, value] : baseline) before[key] = value;
    root["baseline"] = std::move(before);
    const auto it = baseline.find("serve_batched_qps");
    if (it != baseline.end() && it->second > 0.0) {
      root["batched_qps_vs_baseline"] = batched_qps / it->second;
    }
  }
  if (speedup < 2.0) {
    VPR_LOG(Warn) << "BENCH_serve: batched/serial speedup " << speedup
                  << "x is below the 2x acceptance bar";
  }
  if (!bitwise_match) {
    VPR_LOG(Error) << "BENCH_serve: batched responses are not bitwise "
                      "identical to per-request beam_search";
  }

  std::ofstream os{opts.json_path};
  root.write(os);
  os << '\n';
  // One preassembled stdout write: concurrent logger lines on stderr can
  // land between stdout writes, so keep the report to a single write.
  const std::string report =
      "wrote " + opts.json_path + "\n" + root.dump() + "\n";
  std::fputs(report.c_str(), stdout);
  std::fflush(stdout);
  return (bitwise_match && rollback_exactly_one) ? 0 : 1;
}

}  // namespace vpr::serve
