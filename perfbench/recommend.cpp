// recommend: one align::Pipeline::recommend(design, 5) per op on a freshly
// generated design outside the archive. Set-up fits the Pipeline on a
// cell-capped archive.

#include <algorithm>
#include <memory>
#include <sstream>

#include "align/beam.h"
#include "align/pipeline.h"
#include "flows.h"
#include "insight/insight.h"
#include "netlist/suite.h"
#include "util/rng.h"

namespace pb {
namespace {

using namespace vpr::align;
using vpr::flow::Design;
using vpr::netlist::DesignTraits;

constexpr int kK = 5;
// Every generated design draws its cell count from this one narrow band,
// so op costs form a single mode.
constexpr int kBandLo = 2000;
constexpr int kBandHi = 2400;

/// Fixed seeds: the fitted model, and with it the kind of recipe sets it
/// recommends (which sets the verification flows' cost), is the same on
/// every run; only the designs come from the workload seed.
PipelineConfig pipeline_config() {
  PipelineConfig pc;
  pc.dataset = capped_archive_config();
  pc.train.epochs = 1;
  pc.train.pairs_per_design = 16;
  pc.beam_width = kK;
  pc.seed = 0x919eULL;
  return pc;
}

/// A new design: node, period and depth from a seeded suite design, the
/// other traits drawn uniformly within the suite's range, the cell count
/// from the band.
DesignTraits new_design(std::uint64_t seed, std::uint64_t op) {
  const auto suite = vpr::netlist::benchmark_suite();
  vpr::util::Rng rng{vpr::util::hash_combine(seed, op)};
  DesignTraits t = suite[rng.index(suite.size())];
  const auto draw = [&](double DesignTraits::*field) {
    double lo = suite.front().*field;
    double hi = lo;
    for (const auto& s : suite) {
      lo = std::min(lo, s.*field);
      hi = std::max(hi, s.*field);
    }
    t.*field = rng.uniform(lo, hi);
  };
  for (auto field :
       {&DesignTraits::ff_ratio, &DesignTraits::high_fanout_ratio,
        &DesignTraits::activity_mean, &DesignTraits::lvt_ratio,
        &DesignTraits::weak_drive_ratio, &DesignTraits::congestion_propensity,
        &DesignTraits::hold_sensitivity, &DesignTraits::skew_sensitivity,
        &DesignTraits::macro_ratio}) {
    draw(field);
  }
  t.target_cells = rng.uniform_int(kBandLo, kBandHi);
  t.seed = rng();
  t.name = "N" + std::to_string(op);
  return t;
}

constexpr std::uint64_t kWarmupOp = 1ULL << 40;

/// Pipeline::recommend spelled out through its public parts, with a span
/// around each link of the serial chain.
struct Chain {
  double probe_ms = 0.0;
  double analyze_ms = 0.0;
  double beam_ms = 0.0;
  double verify_ms = 0.0;
};

std::vector<Recommendation> recommend_decomposed(const Pipeline& pipeline,
                                                 const Design& design,
                                                 Chain& c) {
  auto& eval = vpr::flow::FlowEval::shared();
  const vpr::flow::FlowResult* probe = nullptr;
  {
    Span span{"bench.flow.probe", c.probe_ms};
    probe = &eval.probe(design);
  }
  std::vector<double> iv;
  {
    Span span{"bench.insight.analyze", c.analyze_ms};
    const auto vec = vpr::insight::analyze(design, *probe);
    iv.assign(vec.begin(), vec.end());
  }
  std::vector<BeamCandidate> cands;
  {
    Span span{"bench.align.beam", c.beam_ms};
    cands = beam_search(pipeline.model(), iv, kK);
  }
  Span span{"bench.flow.verify", c.verify_ms};
  std::vector<Recommendation> out;
  for (const auto& cand : cands) {
    const auto q = eval.eval(design, cand.recipes);
    Recommendation rec;
    rec.recipes = cand.recipes;
    rec.log_prob = cand.log_prob;
    rec.power = q.power;
    rec.tns = q.tns;
    out.push_back(rec);
  }
  return out;
}

bool same_recs(const std::vector<Recommendation>& a,
               const std::vector<Recommendation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].recipes != b[i].recipes || a[i].log_prob != b[i].log_prob ||
        a[i].power != b[i].power || a[i].tns != b[i].tns) {
      return false;
    }
  }
  return true;
}

/// The recommendations of one op checked against the oracles: the beam
/// against beam_search_reference, a seeded candidate's flow against
/// Flow::run_reference. Runs from an emptied FlowEval.
void check_op(Report& report, Phase* op_phase, const Pipeline& pipeline,
              const DesignTraits& t, const std::vector<Recommendation>& recs,
              std::uint64_t pick) {
  FlowLayers::reset();
  const Design design{t};
  const auto vec = vpr::insight::analyze(
      design, vpr::flow::FlowEval::shared().probe(design));
  const std::vector<double> iv(vec.begin(), vec.end());
  const auto ref = beam_search_reference(pipeline.model(), iv, kK);
  bool beam_ok = ref.size() == recs.size();
  for (std::size_t i = 0; beam_ok && i < ref.size(); ++i) {
    beam_ok = ref[i].recipes == recs[i].recipes &&
              ref[i].log_prob == recs[i].log_prob;
  }
  if (!beam_ok) {
    report.fail_check("beam on " + t.name + " differs from beam_search_reference",
                      op_phase);
  }
  if (!recs.empty()) {
    const auto& r = recs[pick % recs.size()];
    check_reference(report, beam_ok ? op_phase : nullptr, t, r.recipes,
                    r.power, r.tns);
  }
}

}  // namespace

std::string describe_recommend_inputs(std::uint64_t seed) {
  std::ostringstream os;
  os.precision(17);
  for (const std::uint64_t op :
       std::initializer_list<std::uint64_t>{kWarmupOp, 0, 1, 2, 3}) {
    const auto t = new_design(seed, op);
    os << t.name << ' ' << t.feature_nm << ' ' << t.target_cells << ' '
       << t.clock_period_ns << ' ' << t.logic_depth << ' ' << t.ff_ratio << ' '
       << t.high_fanout_ratio << ' ' << t.activity_mean << ' ' << t.lvt_ratio
       << ' ' << t.weak_drive_ratio << ' ' << t.congestion_propensity << ' '
       << t.hold_sensitivity << ' ' << t.skew_sensitivity << ' '
       << t.macro_ratio << ' ' << t.clusters << ' ' << t.seed << '\n';
  }
  return os.str();
}

Report run_recommend(const Options& opts) {
  const auto start = Clock::now();
  Report report;
  const Suite suite = make_suite(kArchiveCellCap);
  FlowLayers::reset();
  Pipeline pipeline{pipeline_config()};
  pipeline.fit(suite.designs);

  // Each op's design is generated (netlist included) untimed, from an
  // emptied FlowEval.
  std::unique_ptr<Design> design;
  const auto prepare = [&](std::uint64_t id) {
    FlowLayers::reset();
    design = std::make_unique<Design>(new_design(opts.seed, id));
  };
  std::vector<std::vector<Recommendation>> recs;
  FlowLayers layers;
  const auto op = [&] {
    recs.push_back(pipeline.recommend(*design, kK));
    layers.add_op();
    return recs.back().size() == static_cast<std::size_t>(kK);
  };
  const auto prepare_timed = [&](int i) {
    prepare(static_cast<std::uint64_t>(i));
  };
  const auto timed = [&](int) { return op(); };

  prepare(kWarmupOp);
  if (end_setup(report, opts, start, op())) return report;
  const auto warmup = recs.back();

  // recs[first_reported + j] is op j of the reported phase.
  std::size_t first_reported = recs.size();
  if (!opts.trace) {
    report.phase = timed_loop(opts.seconds, 3, prepare_timed, timed);
  } else {
    const Phase untraced = timed_loop(opts.seconds / 2, 2, prepare_timed, timed);
    report.require_clean(untraced);
    first_reported = recs.size();
    layers = FlowLayers{};
    start_tracing();
    Chain c;
    report.phase = timed_loop(opts.seconds / 2, 2, prepare_timed, [&](int) {
      recs.push_back(recommend_decomposed(pipeline, *design, c));
      layers.add_op();
      return recs.back().size() == static_cast<std::size_t>(kK);
    });
    set_trace_overhead(report, untraced, report.phase);
    layers.report(report, report.phase);
    write_trace(opts);

    const double ops = static_cast<double>(report.phase.attempted);
    auto& m = report.per_layer;
    m["flow.probe_ms"] = c.probe_ms / ops;
    m["insight.analyze_ms"] = c.analyze_ms / ops;
    m["align.beam_ms"] = c.beam_ms / ops;
    m["flow.verify_ms"] = c.verify_ms / ops;
    LayerTable table;
    table.title = "recommend: wall time per op (serial chain)";
    table.total = mean(report.phase.latency_ms);
    table.rows = {{"flow.probe", m["flow.probe_ms"]},
                  {"insight.analyze", m["insight.analyze_ms"]},
                  {"align.beam", m["align.beam_ms"]},
                  {"flow.verify", m["flow.verify_ms"]}};
    table.remainder = "recommend.residual";
    m["recommend.residual_ms"] =
        table.total - m["flow.probe_ms"] - m["insight.analyze_ms"] -
        m["align.beam_ms"] - m["flow.verify_ms"];
    report.tables.push_back(table);

    // The decomposed chain must reproduce Pipeline::recommend.
    prepare(kWarmupOp);
    Chain unused;
    if (!same_recs(recommend_decomposed(pipeline, *design, unused), warmup)) {
      report.fail_check(
          "decomposed recommend chain differs from Pipeline::recommend",
          nullptr);
    }
  }

  // The warm-up op and one seeded op of the reported phase are checked
  // against the oracles.
  check_op(report, nullptr, pipeline, new_design(opts.seed, kWarmupOp), warmup,
           opts.seed);
  vpr::util::Rng pick{vpr::util::hash_combine(opts.seed, 0xc4eccULL)};
  const std::size_t j = pick.index(recs.size() - first_reported);
  check_op(report, &report.phase, pipeline, new_design(opts.seed, j),
           recs[first_reported + j], pick());
  return report;
}

}  // namespace pb
