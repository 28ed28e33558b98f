// perfbench: the end-to-end benchmark of the InsightAlign system.
//
//   perfbench --workload archive|kfold|recommend|serve --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//   perfbench --workload W --seed N --setup-only 1
//   perfbench --describe-inputs WORKLOAD --seed N
//   perfbench --list-metrics
//
// A run sets the workload up, runs one untimed warm-up op, measures for S
// seconds, checks the outputs against the program's oracles, and prints
// one JSON object as its last line. --trace 0 reports the end-to-end
// metrics; --trace 1 splits the time between an untraced and a traced
// phase, reports the per-layer metrics, prints the per-layer table to
// stderr and writes a Perfetto trace.json. --setup-only 1 stops after
// the warm-up op and prints only {"correct", "setup_s"}: run.py starts a
// few such processes per run, so that every set-up it reports is a cold
// one. perfbench/README.md describes the workloads and metrics.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "nn/kernels.h"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"flow.runs", "count"},
    {"flow.run_ms", "ms"},
    {"flow.eval.hit_rate", "ratio"},
    {"flow.eval.lookup_ms", "ms"},
    {"flow.place_ms", "ms"},
    {"flow.cts_ms", "ms"},
    {"flow.route_ms", "ms"},
    {"flow.sta_ms", "ms"},
    {"flow.opt_ms", "ms"},
    {"flow.power_ms", "ms"},
    {"route.full_share", "ratio"},
    {"cpu_util", "ratio"},
    {"flow.probe_ms", "ms"},
    {"insight.analyze_ms", "ms"},
    {"align.beam_ms", "ms"},
    {"flow.verify_ms", "ms"},
    {"recommend.residual_ms", "ms"},
    {"align.train_ms", "ms"},
    {"align.train_pairs_per_s", "1/s"},
    {"align.pair_accuracy_ms", "ms"},
    {"align.zero_shot_ms", "ms"},
    {"kfold.residual_ms", "ms"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.queue_ms_p99", "ms"},
    {"serve.decode_ms_p50", "ms"},
    {"serve.net_ms_p50", "ms"},
    {"serve.net_ms_p99", "ms"},
    {"serve.batch_lanes_mean", "count"},
    {"serve.ticks", "count"},
    {"serve.replica_skew", "ratio"},
    {"serve.rejected", "count"},
    {"serve.timed_out", "count"},
    {"serve.swaps", "count"},
    {"serve.swap_ms_mean", "ms"},
    {"registry.publish_ms", "ms"},
    {"trace_overhead", "ratio"},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// A fixed memory-bound loop (STREAM triad over 3 x 32 MiB), best of 5,
/// in GB/s: a host-speed diagnostic recorded beside every run.
double calibration_gbps() {
  constexpr std::size_t n = std::size_t{4} << 20;
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  double best_s = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = pb::Clock::now();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 3.0 * c[i];
    best_s = std::min(best_s, pb::ms_since(t0) / 1e3);
    b[rep] = a[n - 1 - static_cast<std::size_t>(rep)];  // keep the loop live
  }
  return 3.0 * static_cast<double>(n * sizeof(double)) / best_s / 1e9;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "archive|kfold|recommend|serve --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n"
               "       perfbench --workload W --seed N --setup-only 1\n"
               "       perfbench --describe-inputs WORKLOAD --seed N\n"
               "       perfbench --list-metrics\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opts;
  std::string describe;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--list-metrics") {
      for (const auto& m : kEndToEnd) std::printf("end_to_end %s %s\n", m.name, m.unit);
      for (const auto& m : kPerLayer) std::printf("per_layer %s %s\n", m.name, m.unit);
      return 0;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage(("bad argument " + key).c_str());
    args[key.substr(2)] = argv[++i];
  }
  try {
    for (const auto& [key, value] : args) {
      if (key == "workload") {
        opts.workload = value;
      } else if (key == "seed") {
        opts.seed = std::stoull(value);
      } else if (key == "seconds") {
        opts.seconds = std::stod(value);
      } else if (key == "trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opts.trace = value == "1";
      } else if (key == "setup-only") {
        if (value != "0" && value != "1") usage("--setup-only takes 0 or 1");
        opts.setup_only = value == "1";
      } else if (key == "out-dir") {
        opts.out_dir = value;
      } else if (key == "describe-inputs") {
        describe = value;
      } else {
        usage(("unknown option --" + key).c_str());
      }
    }
  } catch (const std::exception&) {
    usage("bad number");
  }
  if (opts.seconds <= 0) usage("--seconds must be positive");

  if (!describe.empty()) {
    if (describe == "archive") std::cout << pb::describe_archive_inputs(opts.seed);
    else if (describe == "kfold") std::cout << pb::describe_kfold_inputs(opts.seed);
    else if (describe == "recommend") std::cout << pb::describe_recommend_inputs(opts.seed);
    else if (describe == "serve") std::cout << pb::describe_serve_inputs(opts.seed);
    else usage("unknown workload");
    return 0;
  }

  const std::map<std::string, pb::Report (*)(const pb::Options&)> workloads = {
      {"archive", pb::run_archive},
      {"kfold", pb::run_kfold},
      {"recommend", pb::run_recommend},
      {"serve", pb::run_serve},
  };
  const auto it = workloads.find(opts.workload);
  if (it == workloads.end()) usage("unknown or missing --workload");

  pb::Report report = it->second(opts);
  if (opts.setup_only) {
    for (const auto& f : report.check_failures) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
    }
    std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
              << ", \"setup_s\": " << num(report.setup_s) << "}" << std::endl;
    return 0;
  }
  const pb::Phase& phase = report.phase;
  if (phase.attempted != phase.ok + phase.failed) {
    report.correct = false;
    report.check_failures.push_back(
        "op accounting: " + std::to_string(phase.attempted) +
        " attempted != " + std::to_string(phase.ok) + " ok + " +
        std::to_string(phase.failed) + " failed");
  }
  const double rss_mb = pb::peak_rss_mb();
  const double gbps = calibration_gbps();  // after the RSS reading

  std::map<std::string, double> values;
  if (!opts.trace) {
    values["setup_s"] = report.setup_s;
    values["throughput_per_s"] =
        phase.wall_s > 0 ? static_cast<double>(phase.ok) / phase.wall_s : 0.0;
    values["latency_p50_ms"] = pb::percentile(phase.latency_ms, 0.5);
    values["peak_rss_mb"] = rss_mb;
  } else {
    for (const auto& t : report.tables) t.print(std::cerr);
    std::fprintf(stderr, "== trace_overhead %.4f\n",
                 report.per_layer.count("trace_overhead")
                     ? report.per_layer.at("trace_overhead")
                     : 0.0);
  }
  for (const auto& f : report.check_failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }

  std::ostringstream metrics;
  bool first = true;
  const auto emit = [&](const MetricDef& m, double v) {
    metrics << (first ? "" : ", ") << json_string(m.name) << ": {\"value\": "
            << num(v) << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  };
  if (!opts.trace) {
    for (const auto& m : kEndToEnd) emit(m, values.at(m.name));
  } else {
    for (const auto& m : kPerLayer) {
      const auto v = report.per_layer.find(m.name);
      emit(m, v == report.per_layer.end() ? 0.0 : v->second);
    }
  }
  for (const auto& [name, v] : report.per_layer) {
    bool known = false;
    for (const auto& m : kPerLayer) known = known || name == m.name;
    if (!known) {
      std::fprintf(stderr, "perfbench: unlisted per-layer metric %s\n", name.c_str());
      return 1;
    }
  }

  std::ostringstream checks;
  for (std::size_t i = 0; i < report.check_failures.size(); ++i) {
    checks << (i ? ", " : "") << json_string(report.check_failures[i]);
  }
  // Per-op latencies go into the run record when there are few ops, so an
  // outlier run can be explained.
  std::ostringstream op_latencies;
  if (phase.latency_ms.size() <= 200) {
    for (std::size_t i = 0; i < phase.latency_ms.size(); ++i) {
      op_latencies << (i ? ", " : "") << num(phase.latency_ms[i]);
    }
  }
  const bool correct = report.correct && phase.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << phase.attempted
            << ", \"failed\": " << phase.failed << ", \"metrics\": {"
            << metrics.str() << "}, \"ok\": " << phase.ok
            << ", \"check_failures\": [" << checks.str()
            << "], \"diagnostics\": {\"calibration_triad_gbps\": " << num(gbps)
            << ", \"kernel_isa\": "
            << json_string(vpr::nn::kern::active_isa() == vpr::nn::kern::Isa::kAvx2
                               ? "avx2"
                               : "scalar")
            << ", \"phase_wall_s\": " << num(phase.wall_s)
            << ", \"phase_cpu_s\": " << num(phase.cpu_s)
            << ", \"latency_p90_ms\": " << num(pb::percentile(phase.latency_ms, 0.9))
            << ", \"latency_p99_ms\": " << num(pb::percentile(phase.latency_ms, 0.99))
            << ", \"op_latency_ms\": [" << op_latencies.str() << "]}}"
            << std::endl;
  return 0;
}
