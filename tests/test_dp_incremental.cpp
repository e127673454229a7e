// solve_dp_incremental (core/dp_replan.hpp) against cold solve_dp on real
// problems: every warm path - splice, dirty stripes, cold fallback - must be
// bit-identical in table checksum, cost, and profile, and the warm state
// must be invalidated whenever reuse would be unsound.
#include <gtest/gtest.h>

#include <cstring>

#include "core/dp_replan.hpp"
#include "core/dp_solver.hpp"
#include "ev/energy_model.hpp"
#include "road/route.hpp"

namespace evvo::core {
namespace {

road::Route test_route() { return road::Route({{0.0, 420.0, 20.0, 0.0, 0.0}}); }

DpProblem make_problem(const road::Route& route, const ev::EnergyModel& energy) {
  DpProblem p;
  p.route = &route;
  p.energy = &energy;
  p.resolution = DpResolution{10.0, 0.5, 1.0, 200.0};
  p.time_weight_mah_per_s = 2.0;
  p.checksum_tables = true;
  LayerEvent stop;
  stop.type = LayerEvent::Type::kStopSign;
  stop.layer = 5;
  stop.dwell_s = 2.0;
  LayerEvent light;
  light.type = LayerEvent::Type::kSignal;
  light.layer = 30;
  light.enforce_windows = true;
  light.windows = {{0.0, 40.0}, {60.0, 1000.0}};
  p.events = {stop, light};
  return p;
}

void expect_identical(const DpSolution& warm, const DpSolution& cold) {
  EXPECT_EQ(warm.stats.table_checksum, cold.stats.table_checksum);
  EXPECT_EQ(warm.stats.layers, cold.stats.layers);
  EXPECT_EQ(warm.stats.velocity_levels, cold.stats.velocity_levels);
  EXPECT_EQ(warm.stats.time_bins, cold.stats.time_bins);
  const double wc = warm.stats.best_cost_mah;
  const double cc = cold.stats.best_cost_mah;
  EXPECT_EQ(std::memcmp(&wc, &cc, sizeof wc), 0) << wc << " vs " << cc;
  const auto& wn = warm.profile.nodes();
  const auto& cn = cold.profile.nodes();
  ASSERT_EQ(wn.size(), cn.size());
  EXPECT_EQ(std::memcmp(wn.data(), cn.data(), wn.size() * sizeof(PlanNode)), 0);
}

TEST(DpIncremental, FirstSolveGoesColdAndMatches) {
  const road::Route route = test_route();
  const ev::EnergyModel energy;
  const DpProblem p = make_problem(route, energy);
  DpWorkspace warm_ws, cold_ws;
  DpPrevSolution prev;
  DpReplanStats rstats;
  const auto warm = solve_dp_incremental(p, prev, warm_ws, &rstats);
  const auto cold = solve_dp(p, cold_ws);
  ASSERT_TRUE(warm.has_value());
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(rstats.path, ReplanDelta::Path::kCold);
  EXPECT_STREQ(rstats.cold_reason, "no previous solve");
  EXPECT_EQ(rstats.relaxed_layers, rstats.total_layers);
  expect_identical(*warm, *cold);
  EXPECT_TRUE(prev.valid);
}

TEST(DpIncremental, WindowShiftTakesStripesAndMatchesCold) {
  const road::Route route = test_route();
  const ev::EnergyModel energy;
  DpProblem p = make_problem(route, energy);
  DpWorkspace warm_ws, cold_ws;
  DpPrevSolution prev;
  ASSERT_TRUE(solve_dp_incremental(p, prev, warm_ws).has_value());

  p.events[1].windows[0].end_s = 35.0;  // single T_q window shift at layer 30
  DpReplanStats rstats;
  const auto warm = solve_dp_incremental(p, prev, warm_ws, &rstats);
  const auto cold = solve_dp(p, cold_ws);
  ASSERT_TRUE(warm.has_value());
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(rstats.path, ReplanDelta::Path::kStripes);
  EXPECT_EQ(rstats.first_relax, 30u);
  EXPECT_EQ(rstats.relaxed_layers, rstats.total_layers - 30u);
  expect_identical(*warm, *cold);
}

TEST(DpIncremental, ResubmissionSplicesWithoutRelaxing) {
  const road::Route route = test_route();
  const ev::EnergyModel energy;
  const DpProblem p = make_problem(route, energy);
  DpWorkspace warm_ws, cold_ws;
  DpPrevSolution prev;
  ASSERT_TRUE(solve_dp_incremental(p, prev, warm_ws).has_value());
  const std::uint64_t serial = warm_ws.solve_serial();

  DpReplanStats rstats;
  const auto warm = solve_dp_incremental(p, prev, warm_ws, &rstats);
  const auto cold = solve_dp(p, cold_ws);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(rstats.path, ReplanDelta::Path::kSpliced);
  EXPECT_EQ(rstats.relaxed_layers, 0u);
  EXPECT_EQ(warm_ws.solve_serial(), serial);  // the engine never ran
  expect_identical(*warm, *cold);
}

TEST(DpIncremental, SpliceBackfillsANewlyRequestedChecksum) {
  const road::Route route = test_route();
  const ev::EnergyModel energy;
  DpProblem p = make_problem(route, energy);
  p.checksum_tables = false;
  DpWorkspace warm_ws, cold_ws;
  DpPrevSolution prev;
  const auto first = solve_dp_incremental(p, prev, warm_ws);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->stats.table_checksum, 0u);

  // checksum_tables is outside the fingerprint: the resubmission still
  // splices, and the checksum is computed from the still-valid tables.
  p.checksum_tables = true;
  DpReplanStats rstats;
  const auto warm = solve_dp_incremental(p, prev, warm_ws, &rstats);
  const auto cold = solve_dp(p, cold_ws);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(rstats.path, ReplanDelta::Path::kSpliced);
  ASSERT_TRUE(cold.has_value());
  EXPECT_NE(warm->stats.table_checksum, 0u);
  expect_identical(*warm, *cold);

  // And dropping the request again reports 0, like a cold no-checksum solve.
  p.checksum_tables = false;
  const auto bare = solve_dp_incremental(p, prev, warm_ws, &rstats);
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(rstats.path, ReplanDelta::Path::kSpliced);
  EXPECT_EQ(bare->stats.table_checksum, 0u);
}

TEST(DpIncremental, ClobberedWorkspaceFallsBackCold) {
  const road::Route route = test_route();
  const road::Route other_route({{0.0, 200.0, 15.0, 0.0, 0.0}});
  const ev::EnergyModel energy;
  DpProblem p = make_problem(route, energy);
  DpWorkspace ws, cold_ws;
  DpPrevSolution prev;
  ASSERT_TRUE(solve_dp_incremental(p, prev, ws).has_value());

  // Another solve reuses the workspace: its tables no longer hold prev.
  DpProblem other;
  other.route = &other_route;
  other.energy = &energy;
  other.resolution = DpResolution{10.0, 0.5, 1.0, 100.0};
  ASSERT_TRUE(solve_dp(other, ws).has_value());

  p.events[1].windows[0].end_s = 35.0;  // would be kStripes with valid tables
  DpReplanStats rstats;
  const auto warm = solve_dp_incremental(p, prev, ws, &rstats);
  const auto cold = solve_dp(p, cold_ws);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(rstats.path, ReplanDelta::Path::kCold);
  EXPECT_STREQ(rstats.cold_reason, "workspace reused by another solve");
  expect_identical(*warm, *cold);
}

TEST(DpIncremental, InfeasibleSolveResetsTheWarmState) {
  const road::Route route = test_route();
  const ev::EnergyModel energy;
  DpProblem p = make_problem(route, energy);
  DpWorkspace ws;
  DpPrevSolution prev;
  ASSERT_TRUE(solve_dp_incremental(p, prev, ws).has_value());

  // A window shift that leaves no way through: infeasible on both paths,
  // and the interrupted sweep must poison the snapshot.
  DpProblem blocked = p;
  blocked.events[1].windows = {{0.0, 1.0}};
  blocked.penalty.mode = PenaltyMode::kHard;
  DpReplanStats rstats;
  DpWorkspace cold_ws;
  const auto warm = solve_dp_incremental(blocked, prev, ws, &rstats);
  const auto cold = solve_dp(blocked, cold_ws);
  EXPECT_EQ(warm.has_value(), cold.has_value());
  if (!warm.has_value()) {
    EXPECT_FALSE(prev.valid);
    // The next solve - even of the original problem - must start cold.
    const auto again = solve_dp_incremental(p, prev, ws, &rstats);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(rstats.path, ReplanDelta::Path::kCold);
    EXPECT_STREQ(rstats.cold_reason, "no previous solve");
  }
}

}  // namespace
}  // namespace evvo::core
