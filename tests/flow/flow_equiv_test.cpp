// Flow::run (persistent IncrementalTimer, placement and routing memos) vs
// Flow::run_reference (fresh TimingAnalyzer per STA call, no reuse) must
// produce bit-for-bit identical results: the warm path is a pure
// optimization. Also sanity-checks the per-stage wall-clock timers.

#include <gtest/gtest.h>

#include <vector>

#include "flow/flow.h"
#include "flow/recipe.h"
#include "netlist/suite.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace vpr::flow {
namespace {

void expect_qor_equal(const Qor& a, const Qor& b, const std::string& what) {
  EXPECT_EQ(a.wns, b.wns) << what;
  EXPECT_EQ(a.tns, b.tns) << what;
  EXPECT_EQ(a.hold_tns, b.hold_tns) << what;
  EXPECT_EQ(a.power, b.power) << what;
  EXPECT_EQ(a.area, b.area) << what;
  EXPECT_EQ(a.drcs, b.drcs) << what;
}

std::uint64_t route_reuses() {
  return obs::MetricsRegistry::instance().counter("flow.route_reuses").value();
}

/// Deterministic sample of `count` recipe sets spanning empty, dense and
/// random subsets (seeded per caller so designs see different sets).
std::vector<RecipeSet> sample_recipe_sets(int count, std::uint64_t seed) {
  std::vector<RecipeSet> sets;
  sets.emplace_back();  // default flow
  util::Rng rng{seed};
  while (static_cast<int>(sets.size()) < count) {
    std::vector<int> bits(kNumRecipes, 0);
    const int picks = rng.uniform_int(1, 6);
    for (int j = 0; j < picks; ++j) {
      bits[static_cast<std::size_t>(rng.uniform_int(0, kNumRecipes - 1))] = 1;
    }
    sets.push_back(RecipeSet::from_bits(bits));
  }
  return sets;
}

TEST(FlowEquiv, SmallDesignManyRecipeSets) {
  netlist::DesignTraits t;
  t.name = "equiv";
  t.target_cells = 700;
  t.clock_period_ns = 1.1;
  t.logic_depth = 11;
  t.hold_sensitivity = 0.4;  // exercise hold buffering (netlist appends)
  t.seed = 0xfa57ULL;
  const Design design{t};
  const Flow flow{design};
  for (const RecipeSet& rs : sample_recipe_sets(24, 0x5a3eULL)) {
    const FlowResult fast = flow.run(rs);
    const FlowResult ref = flow.run_reference(rs);
    expect_qor_equal(fast.qor, ref.qor, "recipes=" + rs.to_string());
    // The full signoff report must agree too, not just the QoR scalars.
    EXPECT_EQ(fast.final_timing.wns, ref.final_timing.wns);
    EXPECT_EQ(fast.final_timing.hold_wns, ref.final_timing.hold_wns);
    EXPECT_EQ(fast.final_timing.max_arrival, ref.final_timing.max_arrival);
    EXPECT_EQ(fast.pre_opt_timing.tns, ref.pre_opt_timing.tns);
    EXPECT_EQ(fast.final_cell_count, ref.final_cell_count);
    EXPECT_EQ(fast.routing.total_wirelength, ref.routing.total_wirelength);
  }
}

TEST(FlowEquiv, AllSuiteDesignsSampledRecipeSets) {
  // Successive recipe sets on one Flow hit the warm path (placement and
  // routing memos), and every warm result must match the cold
  // run_reference oracle bit-for-bit.
  const std::uint64_t reuses_before = route_reuses();
  int warm_runs = 0;
  for (int k = 1; k <= netlist::kSuiteSize; ++k) {
    const Design design{netlist::suite_design(k)};
    const Flow flow{design};
    for (const RecipeSet& rs :
         sample_recipe_sets(3, 0xd00dULL + static_cast<std::uint64_t>(k))) {
      const FlowResult fast = flow.run(rs);
      const FlowResult ref = flow.run_reference(rs);
      ++warm_runs;
      expect_qor_equal(fast.qor, ref.qor,
                       design.name() + " recipes=" + rs.to_string());
      EXPECT_EQ(fast.routing.total_wirelength, ref.routing.total_wirelength);
      EXPECT_EQ(fast.routing.net_length, ref.routing.net_length);
      EXPECT_EQ(fast.routing.overflow_edges, ref.routing.overflow_edges);
      EXPECT_EQ(fast.final_cell_count, ref.final_cell_count);
    }
  }
  // The memo engaged somewhere in the sweep, so the bitwise checks above
  // cover reused routings, and it never fired on a Flow's first run.
  const std::uint64_t reuses = route_reuses() - reuses_before;
  EXPECT_GT(reuses, 0u);
  EXPECT_LE(reuses,
            static_cast<std::uint64_t>(warm_runs - netlist::kSuiteSize));
}

TEST(FlowEquiv, WarmRepeatShortCircuitsRouting) {
  const Design design{netlist::suite_design(3)};
  const Flow flow{design};
  const RecipeSet rs = RecipeSet::from_ids({1});
  const FlowResult first = flow.run(rs);
  const std::uint64_t before = route_reuses();
  const FlowResult second = flow.run(rs);
  // Identical inputs: the remembered routing is handed back.
  EXPECT_EQ(route_reuses() - before, 1u);
  expect_qor_equal(first.qor, second.qor, "warm repeat");
  EXPECT_EQ(first.routing.net_length, second.routing.net_length);
  // The oracle never consults the memo.
  (void)flow.run_reference(rs);
  EXPECT_EQ(route_reuses() - before, 1u);
}

TEST(FlowEquiv, RouteKnobChangeIsNotReused) {
  // Same placement knobs, different route knobs: the second run must
  // route again rather than hand back the first run's routing.
  const Design design{netlist::suite_design(5)};
  const Flow flow{design};
  const RecipeSet plain = RecipeSet::from_ids({});
  const RecipeSet effort = RecipeSet::from_ids({24});  // route_effort_high
  ASSERT_TRUE(flow.resolve_knobs(plain).place ==
              flow.resolve_knobs(effort).place);
  ASSERT_FALSE(route::clamp_knobs(flow.resolve_knobs(plain).route) ==
               route::clamp_knobs(flow.resolve_knobs(effort).route));
  const FlowResult first = flow.run(plain);
  const std::uint64_t before = route_reuses();
  const FlowResult second = flow.run(effort);
  EXPECT_EQ(route_reuses(), before);
  const FlowResult ref = flow.run_reference(effort);
  expect_qor_equal(second.qor, ref.qor, "route knobs changed");
  EXPECT_EQ(second.routing.net_length, ref.routing.net_length);
  EXPECT_EQ(second.routing.total_wirelength, ref.routing.total_wirelength);
  // The knob change really moves the routing, so a memo that ignored the
  // knobs would fail the checks above.
  EXPECT_NE(first.routing.total_wirelength, ref.routing.total_wirelength);
}

TEST(FlowEquiv, ClampedEqualRouteKnobsAreReused) {
  // congestion_combo + route_effort_high push the route effort past its
  // clamp; adding switching_care raises the raw value further but leaves
  // the clamped knobs, and the placement knobs, unchanged.
  const Design design{netlist::suite_design(5)};
  const Flow flow{design};
  const RecipeSet first_rs = RecipeSet::from_ids({24, 38});
  const RecipeSet second_rs = RecipeSet::from_ids({24, 36, 38});
  const FlowKnobs a = flow.resolve_knobs(first_rs);
  const FlowKnobs b = flow.resolve_knobs(second_rs);
  ASSERT_TRUE(a.place == b.place);
  ASSERT_FALSE(a.route == b.route);
  ASSERT_TRUE(route::clamp_knobs(a.route) == route::clamp_knobs(b.route));
  (void)flow.run(first_rs);
  const std::uint64_t before = route_reuses();
  const FlowResult second = flow.run(second_rs);
  EXPECT_EQ(route_reuses() - before, 1u);
  const FlowResult ref = flow.run_reference(second_rs);
  expect_qor_equal(second.qor, ref.qor, "clamped-equal route knobs");
  EXPECT_EQ(second.routing.net_length, ref.routing.net_length);
}

TEST(FlowEquiv, StageTimersArePopulated) {
  const Design design{netlist::suite_design(11)};
  const Flow flow{design};
  const FlowResult r = flow.run(RecipeSet::from_ids({1, 10}));
  const StageTimes& t = r.stage_times;
  EXPECT_GT(t.total_ms, 0.0);
  EXPECT_GT(t.place_ms, 0.0);
  EXPECT_GT(t.cts_ms, 0.0);
  EXPECT_GT(t.route_ms, 0.0);
  EXPECT_GT(t.sta_ms, 0.0);
  EXPECT_GE(t.opt_ms, 0.0);
  EXPECT_GE(t.power_ms, 0.0);
  // The stages partition a subset of the run: their sum cannot exceed the
  // total (up to timer granularity).
  const double sum = t.place_ms + t.cts_ms + t.route_ms + t.sta_ms +
                     t.opt_ms + t.power_ms;
  EXPECT_LE(sum, t.total_ms + 1.0);
  // The per-engine fields partition opt_ms exactly (same clock reads).
  const double opt_sum = t.opt_setup_ms + t.opt_hold_ms +
                         t.opt_power_recovery_ms + t.opt_leakage_ms +
                         t.opt_clock_gating_ms;
  EXPECT_NEAR(opt_sum, t.opt_ms, 1e-9);
  EXPECT_GE(t.opt_setup_ms, 0.0);
  EXPECT_GE(t.opt_hold_ms, 0.0);
  EXPECT_GE(t.opt_clock_gating_ms, 0.0);
}

}  // namespace
}  // namespace vpr::flow
