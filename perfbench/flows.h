#pragma once
// Pieces shared by the workloads that run flows (archive, kfold,
// recommend): flow-layer accounting, the reference-flow check, and the
// cell-capped archive kfold and recommend set up. Every such op starts
// from an emptied FlowEval::shared() — clear() also rebases its stats — so
// stats() read right after an op is exactly that op's share.

#include <memory>
#include <vector>

#include "align/dataset.h"
#include "bench.h"
#include "flow/eval.h"
#include "netlist/generator.h"

namespace pb {

class FlowLayers {
 public:
  /// Empties FlowEval::shared() (its memo, probes, persistent Flows and
  /// counters), as a fresh process would see it.
  static void reset();
  /// Adds FlowEval::shared().stats() (the op since reset()) to the totals.
  void add_op();
  /// flow.runs, flow.run_ms, flow.eval.*, flow.<stage>_ms (per op),
  /// route.full_share (from the program's spans) and cpu_util.
  void report(Report& report, const Phase& phase) const;
  /// Stage busy time per op as table rows, plus the flow time outside
  /// the timed stages.
  void add_stage_rows(LayerTable& table) const;

 private:
  vpr::flow::FlowEvalStats sum_{};
  int ops_ = 0;
};

/// Checks that `power`/`tns` recorded for `recipes` on a design equal a
/// cold Flow::run_reference bitwise, and records a failed check (on an op
/// of `op_phase`, see Report::fail_check) otherwise.
void check_reference(Report& report, Phase* op_phase,
                     const vpr::netlist::DesignTraits& t,
                     const vpr::flow::RecipeSet& recipes, double power,
                     double tns);

/// The 17 suite designs, with target_cells capped at `cell_cap` (0 = none).
std::vector<vpr::netlist::DesignTraits> suite_traits(int cell_cap);

/// The capped suite as flow::Designs (netlists generated), in suite order.
struct Suite {
  std::vector<std::unique_ptr<vpr::flow::Design>> owned;
  std::vector<const vpr::flow::Design*> designs;
};
Suite make_suite(int cell_cap);

/// Cell cap of the archive kfold and recommend set up.
inline constexpr int kArchiveCellCap = 800;
/// That archive's build config. Its seed is fixed, so set-up does the same
/// work on every run whatever the workload seed.
vpr::align::DatasetConfig capped_archive_config();

}  // namespace pb
