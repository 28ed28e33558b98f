// archive: one align::OfflineDataset::build over all 17 suite designs per
// op, from an emptied FlowEval::shared(), with a fresh dataset seed.

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

#include "align/dataset.h"
#include "flows.h"
#include "util/rng.h"

namespace pb {
namespace {

using vpr::align::DatasetConfig;
using vpr::align::OfflineDataset;

// Points per design per op, split random:expert in DatasetConfig's default
// proportion (24 expert of 176): 8 random points, two full waves of a
// 4-thread eval_many, then 1 serial expert point.
constexpr int kPointsPerDesign = 9;
// Designs above this many cells are capped, so an op takes about 3 s.
// README.md compares the op's flow mix with a full default build.
constexpr int kCellCap = 4000;

DatasetConfig op_config(std::uint64_t seed, std::uint64_t op) {
  DatasetConfig cfg;
  cfg.points_per_design = kPointsPerDesign;
  const DatasetConfig defaults;
  cfg.expert_points = static_cast<int>(
      std::lround(kPointsPerDesign * static_cast<double>(defaults.expert_points) /
                  defaults.points_per_design));
  cfg.seed = vpr::util::hash_combine(seed, op);
  return cfg;
}

constexpr std::uint64_t kWarmupOp = ~0ULL;

}  // namespace

std::string describe_archive_inputs(std::uint64_t seed) {
  std::ostringstream os;
  for (const std::uint64_t op : std::initializer_list<std::uint64_t>{kWarmupOp, 0, 1, 2}) {
    const auto cfg = op_config(seed, op);
    os << cfg.points_per_design << ' ' << cfg.expert_points << ' ' << cfg.seed;
    // The recipe sets the build draws first for each design.
    for (std::size_t d = 0; d < 17; ++d) {
      vpr::util::Rng rng{vpr::util::hash_combine(cfg.seed, d)};
      os << ' '
         << vpr::align::random_recipe_set(rng, cfg.min_recipes,
                                          cfg.max_recipes)
                .to_u64();
    }
    os << '\n';
  }
  return os.str();
}

Report run_archive(const Options& opts) {
  const auto start = Clock::now();
  Report report;
  const Suite suite = make_suite(kCellCap);

  std::vector<OfflineDataset> built;
  FlowLayers layers;
  const auto reset = [](int) { FlowLayers::reset(); };
  const auto op = [&](std::uint64_t id) {
    built.push_back(
        OfflineDataset::build(suite.designs, op_config(opts.seed, id)));
    layers.add_op();
    return built.back().size() == suite.designs.size() &&
           built.back().total_points() ==
               static_cast<int>(suite.designs.size()) * kPointsPerDesign;
  };

  reset(0);
  if (end_setup(report, opts, start, op(kWarmupOp))) return report;
  const auto timed = [&](int i) { return op(static_cast<std::uint64_t>(i)); };
  std::size_t first_reported = built.size();
  if (!opts.trace) {
    report.phase = timed_loop(opts.seconds, 3, reset, timed);
  } else {
    const Phase untraced = timed_loop(opts.seconds / 2, 2, reset, timed);
    report.require_clean(untraced);
    first_reported = built.size();
    layers = FlowLayers{};
    start_tracing();
    report.phase = timed_loop(opts.seconds / 2, 2, reset, timed);
    set_trace_overhead(report, untraced, report.phase);
    layers.report(report, report.phase);
    write_trace(opts);

    const double threads = std::max(1u, std::thread::hardware_concurrency());
    LayerTable table;
    table.title = "archive: thread time per op (rows sum to latency x " +
                  std::to_string(static_cast<int>(threads)) + " threads)";
    table.unit = "thread-ms/op";
    table.total = mean(report.phase.latency_ms) * threads;
    layers.add_stage_rows(table);
    table.remainder = "outside.flows";
    report.tables.push_back(table);
  }

  // Sampled archive points, one from the warm-up build and one from a
  // seeded build of the reported phase, must equal the cold reference flow.
  vpr::util::Rng pick{vpr::util::hash_combine(opts.seed, 0xc4eccULL)};
  const std::size_t sampled =
      first_reported + pick.index(built.size() - first_reported);
  for (const std::size_t b : {std::size_t{0}, sampled}) {
    const auto& design = built[b].design(pick.index(built[b].size()));
    const auto& point = design.points[pick.index(design.points.size())];
    std::size_t d = 0;
    while (suite.designs[d]->name() != design.name) ++d;
    check_reference(report, b == 0 ? nullptr : &report.phase,
                    suite.designs[d]->traits(), point.recipes, point.power,
                    point.tns);
  }
  return report;
}

}  // namespace pb
