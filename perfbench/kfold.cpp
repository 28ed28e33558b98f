// kfold: one align::ZeroShotEvaluator::run() per op — MDPO training of
// every fold, then beam K=5 plus verification flows on each held-out
// design — over a cell-capped archive built once in set-up.

#include <sstream>

#include "align/evaluator.h"
#include "flows.h"
#include "util/rng.h"

namespace pb {
namespace {

using namespace vpr::align;

EvalConfig op_config(std::uint64_t seed, std::uint64_t op) {
  EvalConfig ec;
  ec.folds = 4;
  ec.beam_width = 5;
  ec.train.epochs = 1;
  ec.train.pairs_per_design = 16;
  ec.seed = vpr::util::hash_combine(seed, 2 * op);
  ec.train.seed = vpr::util::hash_combine(seed, 2 * op + 1);
  return ec;
}

/// The odd-numbered suite designs, capped like recommend's archive: 8
/// designs, so each of the 4 folds holds out 2 and trains on 6. Every fold
/// scores 200 pairs of every archive design (pair accuracy), so an op's
/// cost grows with the archive; 8 designs give ops of about 2 s, 8-10 to
/// a run.
Suite kfold_suite() {
  Suite suite = make_suite(kArchiveCellCap);
  std::vector<const vpr::flow::Design*> odd;
  for (std::size_t i = 1; i < suite.designs.size(); i += 2) {
    odd.push_back(suite.designs[i]);
  }
  suite.designs = std::move(odd);
  return suite;
}

struct World {
  Suite suite;
  OfflineDataset dataset;
};

constexpr std::uint64_t kWarmupOp = 1ULL << 40;

/// ZeroShotEvaluator::run() spelled out through its public parts, with a
/// span around each so the traced run can attribute the op.
struct Decomposed {
  double train_ms = 0.0;
  double accuracy_ms = 0.0;
  double zero_shot_ms = 0.0;
  long pairs = 0;
};

CrossValidationResult run_decomposed(const ZeroShotEvaluator& ev,
                                     const World& world, const EvalConfig& ec,
                                     Decomposed& d) {
  const auto folds = ev.fold_assignment();
  CrossValidationResult result;
  const auto& designs = world.suite.designs;
  result.rows.resize(designs.size());
  for (int fold = 0; fold < ec.folds; ++fold) {
    std::vector<std::size_t> train_split;
    std::vector<std::size_t> test_split;
    for (std::size_t i = 0; i < designs.size(); ++i) {
      (folds[i] == fold ? test_split : train_split).push_back(i);
    }
    if (test_split.empty()) continue;
    vpr::util::Rng init_rng{vpr::util::hash_combine(ec.seed, fold)};
    RecipeModel model{ModelConfig{}, init_rng};
    TrainConfig tc = ec.train;
    tc.seed = vpr::util::hash_combine(ec.train.seed, fold);
    AlignmentTrainer trainer{model, tc};
    {
      Span span{"bench.align.train", d.train_ms};
      d.pairs += static_cast<long>(trainer.train(world.dataset, train_split)
                                       .optimizer_steps) *
                 tc.minibatch;
    }
    {
      Span span{"bench.align.pair_accuracy", d.accuracy_ms};
      result.fold_train_accuracy.push_back(
          trainer.evaluate_pair_accuracy(world.dataset, train_split));
      result.fold_test_accuracy.push_back(
          trainer.evaluate_pair_accuracy(world.dataset, test_split));
    }
    Span span{"bench.align.zero_shot", d.zero_shot_ms};
    for (const std::size_t i : test_split) {
      result.rows[i] = ev.evaluate_design(model, i, ec.beam_width);
    }
  }
  return result;
}

bool same_rows(const CrossValidationResult& a, const CrossValidationResult& b) {
  if (a.rows.size() != b.rows.size() ||
      a.fold_train_accuracy != b.fold_train_accuracy ||
      a.fold_test_accuracy != b.fold_test_accuracy) {
    return false;
  }
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const auto& x = a.rows[i];
    const auto& y = b.rows[i];
    if (x.design != y.design || x.rec_tns != y.rec_tns ||
        x.rec_power != y.rec_power || x.rec_score != y.rec_score ||
        x.win_pct != y.win_pct || x.best_recipes != y.best_recipes ||
        x.recommendations.size() != y.recommendations.size()) {
      return false;
    }
    for (std::size_t k = 0; k < x.recommendations.size(); ++k) {
      const auto& p = x.recommendations[k];
      const auto& q = y.recommendations[k];
      if (p.recipes != q.recipes || p.power != q.power || p.tns != q.tns) {
        return false;
      }
    }
  }
  return true;
}

bool rows_complete(const CrossValidationResult& cv, const EvalConfig& ec) {
  for (const auto& row : cv.rows) {
    if (row.recommendations.size() != static_cast<std::size_t>(ec.beam_width)) {
      return false;
    }
  }
  return !cv.rows.empty();
}

}  // namespace

std::string describe_kfold_inputs(std::uint64_t seed) {
  std::ostringstream os;
  for (const std::uint64_t op : std::initializer_list<std::uint64_t>{kWarmupOp, 0, 1, 2}) {
    const auto ec = op_config(seed, op);
    os << ec.seed << ' ' << ec.train.seed << '\n';
  }
  return os.str();
}

Report run_kfold(const Options& opts) {
  const auto start = Clock::now();
  Report report;
  World world{kfold_suite(), {}};
  FlowLayers::reset();
  world.dataset =
      OfflineDataset::build(world.suite.designs, capped_archive_config());
  const auto& designs = world.suite.designs;

  std::vector<CrossValidationResult> results;
  FlowLayers layers;
  const auto reset = [](int) { FlowLayers::reset(); };
  const auto op = [&](std::uint64_t id) {
    const auto ec = op_config(opts.seed, id);
    const ZeroShotEvaluator ev{designs, world.dataset, ec};
    results.push_back(ev.run());
    layers.add_op();
    return rows_complete(results.back(), ec);
  };

  reset(0);
  if (end_setup(report, opts, start, op(kWarmupOp))) return report;
  const auto timed = [&](int i) { return op(static_cast<std::uint64_t>(i)); };
  // The results of the reported phase's ops.
  std::vector<CrossValidationResult> decomposed;
  const std::vector<CrossValidationResult>* reported = &results;
  std::size_t first_reported = results.size();
  if (!opts.trace) {
    report.phase = timed_loop(opts.seconds, 3, reset, timed);
  } else {
    const Phase untraced = timed_loop(opts.seconds / 2, 2, reset, timed);
    report.require_clean(untraced);
    layers = FlowLayers{};
    start_tracing();
    Decomposed d;
    report.phase = timed_loop(opts.seconds / 2, 2, reset, [&](int i) {
      const auto ec = op_config(opts.seed, static_cast<std::uint64_t>(i));
      const ZeroShotEvaluator ev{designs, world.dataset, ec};
      decomposed.push_back(run_decomposed(ev, world, ec, d));
      layers.add_op();
      return rows_complete(decomposed.back(), ec);
    });
    reported = &decomposed;
    first_reported = 0;
    set_trace_overhead(report, untraced, report.phase);
    layers.report(report, report.phase);
    write_trace(opts);

    const double ops = static_cast<double>(report.phase.attempted);
    auto& m = report.per_layer;
    m["align.train_ms"] = d.train_ms / ops;
    m["align.train_pairs_per_s"] =
        d.train_ms > 0 ? static_cast<double>(d.pairs) / (d.train_ms / 1e3) : 0;
    m["align.pair_accuracy_ms"] = d.accuracy_ms / ops;
    m["align.zero_shot_ms"] = d.zero_shot_ms / ops;
    LayerTable table;
    table.title = "kfold: wall time per op";
    table.total = mean(report.phase.latency_ms);
    table.rows = {{"align.train", m["align.train_ms"]},
                  {"align.pair_accuracy", m["align.pair_accuracy_ms"]},
                  {"align.zero_shot", m["align.zero_shot_ms"]}};
    table.remainder = "kfold.residual";
    m["kfold.residual_ms"] =
        table.total - m["align.train_ms"] - m["align.pair_accuracy_ms"] -
        m["align.zero_shot_ms"];
    report.tables.push_back(table);

    // The decomposed fold loop must reproduce ZeroShotEvaluator::run().
    // Op 0 ran through run() in the untraced phase with the same seeds.
    if (!same_rows(decomposed.front(), results[1])) {
      report.fail_check("decomposed fold loop differs from run()",
                        &report.phase);
    }
  }

  // A sampled verification flow (the best recommendation of one held-out
  // design in a seeded op of the reported phase) must equal the cold
  // reference flow.
  vpr::util::Rng pick{vpr::util::hash_combine(opts.seed, 0xc4eccULL)};
  const auto& cv = (*reported)[first_reported +
                               pick.index(reported->size() - first_reported)];
  const std::size_t d = pick.index(cv.rows.size());
  check_reference(report, &report.phase, designs[d]->traits(),
                  cv.rows[d].best_recipes, cv.rows[d].rec_power,
                  cv.rows[d].rec_tns);
  return report;
}

}  // namespace pb
