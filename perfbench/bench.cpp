#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <ostream>

#include "obs/trace.h"

namespace pb {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}


double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

Span::Span(const char* name, double& acc_ms)
    : name_(name), acc_ms_(acc_ms), t0_(Clock::now()) {}

Span::~Span() {
  const auto t1 = Clock::now();
  acc_ms_ += std::chrono::duration<double, std::milli>(t1 - t0_).count();
  auto& rec = vpr::obs::TraceRecorder::instance();
  if (rec.enabled()) {
    const auto ts = vpr::obs::TraceRecorder::to_us(t0_);
    rec.complete(name_, "bench", ts, vpr::obs::TraceRecorder::to_us(t1) - ts);
  }
}

void LayerTable::print(std::ostream& os) const {
  double sum = 0.0;
  for (const auto& [name, value] : rows) sum += value;
  char line[160];
  os << "== " << title << " (" << unit << ")\n";
  const auto row = [&](const std::string& name, double value) {
    std::snprintf(line, sizeof line, "  %-28s %12.3f %6.1f%%\n", name.c_str(),
                  value, total > 0.0 ? 100.0 * value / total : 0.0);
    os << line;
  };
  for (const auto& [name, value] : rows) row(name, value);
  row(remainder + " (remainder)", total - sum);
  row("total", total);
}

void Phase::fail_ok(std::uint64_t n) {
  n = std::min(n, ok);
  ok -= n;
  failed += n;
}

void Report::fail_check(std::string what, Phase* op_phase) {
  correct = false;
  check_failures.push_back(std::move(what));
  if (op_phase != nullptr) op_phase->fail_ok(1);
}

void Report::require_clean(const Phase& untraced) {
  if (untraced.failed > 0 ||
      untraced.attempted != untraced.ok + untraced.failed) {
    correct = false;
    check_failures.push_back(
        std::to_string(untraced.failed) + " of " +
        std::to_string(untraced.attempted) + " ops failed or went uncounted "
        "in the untraced half");
  }
}

bool end_setup(Report& report, const Options& opts, Clock::time_point start,
               bool warmup_ok) {
  report.setup_s = ms_since(start) / 1e3;
  if (!warmup_ok) report.fail_check("the warm-up op failed", nullptr);
  return opts.setup_only;
}

void set_trace_overhead(Report& report, const Phase& untraced,
                        const Phase& traced) {
  const double base = percentile(untraced.latency_ms, 0.5);
  const double with = percentile(traced.latency_ms, 0.5);
  report.per_layer["trace_overhead"] = base > 0.0 ? with / base - 1.0 : 0.0;
}

std::uint64_t count_spans(const std::string& name) {
  std::uint64_t n = 0;
  for (const auto& ev : vpr::obs::TraceRecorder::instance().snapshot()) {
    if (ev.phase == 'X' && ev.name == name) ++n;
  }
  return n;
}

void start_tracing() {
  auto& rec = vpr::obs::TraceRecorder::instance();
  rec.set_enabled(false);
  rec.clear();
  rec.set_process_name("perfbench");
  rec.set_thread_name("bench-main");
  rec.set_enabled(true);
}

void write_trace(const Options& opts) {
  auto& rec = vpr::obs::TraceRecorder::instance();
  rec.set_enabled(false);
  std::filesystem::create_directories(opts.out_dir);
  const std::string path = opts.out_dir + "/trace-" + opts.workload + ".json";
  if (!rec.write_json_file(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: wrote %s (%zu events)\n", path.c_str(),
                 rec.event_count());
  }
}

}  // namespace pb
