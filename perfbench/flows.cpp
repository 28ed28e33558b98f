#include "flows.h"

#include <algorithm>
#include <string>

#include "flow/flow.h"
#include "netlist/suite.h"

namespace pb {

void FlowLayers::reset() { vpr::flow::FlowEval::shared().clear(); }

void FlowLayers::add_op() {
  const auto s = vpr::flow::FlowEval::shared().stats();
  sum_.hits += s.hits;
  sum_.misses += s.misses;
  sum_.probe_hits += s.probe_hits;
  sum_.probe_misses += s.probe_misses;
  sum_.eval_seconds += s.eval_seconds;
  sum_.lookup_seconds += s.lookup_seconds;
  sum_.place_seconds += s.place_seconds;
  sum_.cts_seconds += s.cts_seconds;
  sum_.route_seconds += s.route_seconds;
  sum_.sta_seconds += s.sta_seconds;
  sum_.opt_seconds += s.opt_seconds;
  sum_.power_seconds += s.power_seconds;
  ++ops_;
}

void FlowLayers::report(Report& report, const Phase& phase) const {
  auto& m = report.per_layer;
  const double ops = std::max(ops_, 1);
  const auto runs = static_cast<double>(sum_.evaluations());
  m["flow.runs"] = runs / ops;
  m["flow.run_ms"] = runs > 0 ? sum_.eval_seconds * 1e3 / runs : 0.0;
  m["flow.eval.hit_rate"] = sum_.hit_rate();
  m["flow.eval.lookup_ms"] = sum_.lookup_seconds * 1e3 / ops;
  m["flow.place_ms"] = sum_.place_seconds * 1e3 / ops;
  m["flow.cts_ms"] = sum_.cts_seconds * 1e3 / ops;
  m["flow.route_ms"] = sum_.route_seconds * 1e3 / ops;
  m["flow.sta_ms"] = sum_.sta_seconds * 1e3 / ops;
  m["flow.opt_ms"] = sum_.opt_seconds * 1e3 / ops;
  m["flow.power_ms"] = sum_.power_seconds * 1e3 / ops;
  const auto full = static_cast<double>(count_spans("route.full"));
  const auto incr = static_cast<double>(count_spans("route.incremental"));
  m["route.full_share"] = full + incr > 0 ? full / (full + incr) : 0.0;
  m["cpu_util"] = phase.wall_s > 0 ? phase.cpu_s / phase.wall_s : 0.0;
}

void FlowLayers::add_stage_rows(LayerTable& table) const {
  const double ops = std::max(ops_, 1);
  const double stages[] = {sum_.place_seconds, sum_.cts_seconds,
                           sum_.route_seconds, sum_.sta_seconds,
                           sum_.opt_seconds,   sum_.power_seconds};
  const char* names[] = {"flow.place", "flow.cts", "flow.route",
                         "flow.sta",   "flow.opt", "flow.power"};
  double staged = 0.0;
  for (int i = 0; i < 6; ++i) {
    table.rows.emplace_back(names[i], stages[i] * 1e3 / ops);
    staged += stages[i];
  }
  table.rows.emplace_back("flow.untimed_glue",
                          (sum_.eval_seconds - staged) * 1e3 / ops);
}

void check_reference(Report& report, Phase* op_phase,
                     const vpr::netlist::DesignTraits& t,
                     const vpr::flow::RecipeSet& recipes, double power,
                     double tns) {
  const vpr::flow::Design design{t};
  const vpr::flow::Flow flow{design};
  const auto ref = flow.run_reference(recipes).qor;
  if (ref.power != power || ref.tns != tns) {
    report.fail_check("flow on " + t.name + " recipes " +
                          std::to_string(recipes.to_u64()) +
                          " differs from Flow::run_reference",
                      op_phase);
  }
}

vpr::align::DatasetConfig capped_archive_config() {
  vpr::align::DatasetConfig dc;
  dc.points_per_design = 12;
  dc.expert_points = 2;
  dc.seed = 0xa7c1ULL;
  return dc;
}

std::vector<vpr::netlist::DesignTraits> suite_traits(int cell_cap) {
  auto suite = vpr::netlist::benchmark_suite();
  if (cell_cap > 0) {
    for (auto& t : suite) t.target_cells = std::min(t.target_cells, cell_cap);
  }
  return suite;
}

Suite make_suite(int cell_cap) {
  Suite suite;
  for (const auto& t : suite_traits(cell_cap)) {
    suite.owned.push_back(std::make_unique<vpr::flow::Design>(t));
    suite.designs.push_back(suite.owned.back().get());
  }
  return suite;
}

}  // namespace pb
