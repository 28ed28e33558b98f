#pragma once
// Shared scaffolding of the end-to-end benchmark: options, the timed op
// loop, percentile helpers, process resource readings, benchmark-side
// spans, and the per-layer table every traced run prints.
//
// Each workload (archive.cpp, kfold.cpp, recommend.cpp, serve.cpp) drives
// the program only through its public headers, generates every input from
// the --seed it is given, and returns a Report that main.cpp turns into the
// one-line JSON result.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_since(Clock::time_point t0);

struct Report;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop after set-up (the warm-up op included) and report only setup_s.
  bool setup_only = false;
  /// Where the traced run writes its Perfetto trace.json.
  std::string out_dir = ".bench_build/out";
};

/// Latencies and outcomes of one timed phase. `attempted` counts the ops
/// issued and is kept apart from the outcome counters, so an op that is
/// issued but never counted as ok or failed shows as a mismatch.
struct Phase {
  std::vector<double> latency_ms;  // every completed op
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process CPU time over the phase
  /// Moves `n` ops from ok to failed (a later check caught them).
  void fail_ok(std::uint64_t n);
};

/// Runs prepare(i) then op(i) (i = 0, 1, ...) until `seconds` have
/// elapsed, at least `min_ops` times. prepare is untimed set-up of one op
/// (its time is left out of the phase's wall time as well); op returns
/// true when it succeeded, and its wall time is the op latency.
template <typename Prepare, typename Op>
Phase timed_loop(double seconds, int min_ops, Prepare&& prepare, Op&& op);

/// Nearest-rank percentile, q in [0, 1]. 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double mean(const std::vector<double>& v);

[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double process_cpu_s();

/// Ends a workload's set-up, which runs from `start` (the start of the
/// workload) to the first timed op and includes the warm-up op: records
/// the elapsed time as setup_s and a failed warm-up op as a failed check.
/// Returns true when the run stops here (--setup-only).
bool end_setup(Report& report, const Options& opts, Clock::time_point start,
               bool warmup_ok);

/// Benchmark-side span: adds its duration to `acc_ms` and, when tracing
/// is on, records it in obs::TraceRecorder beside the program's spans.
class Span {
 public:
  Span(const char* name, double& acc_ms);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  double& acc_ms_;
  Clock::time_point t0_;
};

/// Per-layer breakdown of one op: the rows must add up to `total`; what
/// they leave is printed as the remainder row.
struct LayerTable {
  std::string title;
  std::string unit = "ms/op";
  double total = 0.0;
  std::vector<std::pair<std::string, double>> rows;
  std::string remainder = "residual";
  void print(std::ostream& os) const;
};

/// A workload's outcome. `phase` and `setup_s` give the end-to-end
/// metrics; `per_layer` and `tables` are filled by the traced run only
/// (keys from main.cpp's kPerLayer; an absent key reads 0, meaning the
/// workload does not drive that layer).
struct Report {
  Phase phase;
  double setup_s = 0.0;
  bool correct = true;
  std::vector<std::string> check_failures;
  std::map<std::string, double> per_layer;
  std::vector<LayerTable> tables;
  /// Records a failed correctness check. `op_phase` is the phase that ran
  /// the checked op, whose op then counts as failed; nullptr when the
  /// check covered set-up or the warm-up op.
  void fail_check(std::string what, Phase* op_phase);
  /// A traced run reports the traced half only: failed ops of the
  /// untraced half still make the run incorrect.
  void require_clean(const Phase& untraced);
};

/// Sets per_layer["trace_overhead"]: the traced phase's median latency over
/// the untraced phase's, minus 1.
void set_trace_overhead(Report& report, const Phase& untraced,
                        const Phase& traced);

/// Count of program spans named `name` recorded so far.
[[nodiscard]] std::uint64_t count_spans(const std::string& name);

/// Enables the trace recorder and drops anything recorded before.
void start_tracing();
/// Writes the recorder's events to <out_dir>/trace-<workload>.json.
void write_trace(const Options& opts);

Report run_archive(const Options& opts);
Report run_kfold(const Options& opts);
Report run_recommend(const Options& opts);
Report run_serve(const Options& opts);

/// Canonical text of the inputs a workload generates from `seed` (the
/// first ops' worth), for the seed self-test.
std::string describe_archive_inputs(std::uint64_t seed);
std::string describe_kfold_inputs(std::uint64_t seed);
std::string describe_recommend_inputs(std::uint64_t seed);
std::string describe_serve_inputs(std::uint64_t seed);

// ---- template definitions ------------------------------------------------

template <typename Prepare, typename Op>
Phase timed_loop(double seconds, int min_ops, Prepare&& prepare, Op&& op) {
  Phase phase;
  double untimed_ms = 0.0;
  double untimed_cpu_s = 0.0;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const auto stop = t0 + std::chrono::duration<double>(seconds);
  for (int i = 0; i < min_ops || Clock::now() < stop; ++i) {
    const auto p = Clock::now();
    const double pcpu = process_cpu_s();
    prepare(i);
    untimed_cpu_s += process_cpu_s() - pcpu;
    const auto s = Clock::now();
    untimed_ms += std::chrono::duration<double, std::milli>(s - p).count();
    ++phase.attempted;
    const bool ok = op(i);
    phase.latency_ms.push_back(ms_since(s));
    ok ? ++phase.ok : ++phase.failed;
  }
  phase.wall_s = (ms_since(t0) - untimed_ms) / 1e3;
  phase.cpu_s = process_cpu_s() - cpu0 - untimed_cpu_s;
  return phase;
}

}  // namespace pb
