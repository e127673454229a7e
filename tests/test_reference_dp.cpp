// Differential test: the deliberately naive reference DP (src/check) against
// the production solver. Both replicate the same float-rounding contract, so
// on any generated scenario the best cost must match to the last bit, the
// full state-table checksums must be equal, and the extracted profiles must
// be byte-identical. A divergence means one side's relaxation order, rounding,
// or backtracking changed -- exactly the class of bug the fuzz harness exists
// to catch.
#include "check/reference_dp.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "check/scenario.hpp"
#include "core/dp_solver.hpp"

namespace evvo::check {
namespace {

bool profiles_bit_identical(const core::PlannedProfile& a, const core::PlannedProfile& b) {
  if (a.nodes().size() != b.nodes().size()) return false;
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    if (std::memcmp(&a.nodes()[i], &b.nodes()[i], sizeof(core::PlanNode)) != 0) return false;
  }
  return true;
}

class ReferenceAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReferenceAgreement, MatchesProductionBitForBit) {
  const ScenarioSpec spec = generate_scenario(GetParam());
  const Scenario scenario(spec);
  core::DpProblem problem = scenario.problem();
  problem.dominance_pruning = false;
  problem.bound_pruning = false;  // table checksums match only the exhaustive sweep
  problem.checksum_tables = true;

  const auto production = core::solve_dp(problem);
  const auto reference = solve_reference_dp(problem);
  ASSERT_EQ(production.has_value(), reference.has_value());
  if (!production) return;

  EXPECT_EQ(reference->best_cost_mah, production->stats.best_cost_mah);
  EXPECT_EQ(reference->table_checksum, production->stats.table_checksum);
  EXPECT_TRUE(profiles_bit_identical(reference->profile, production->profile));
}

TEST_P(ReferenceAgreement, IgnoresPruningAndThreadFlags) {
  // The reference solver must describe the *problem*, not the solver
  // configuration: flipping production-only knobs cannot change its answer.
  const ScenarioSpec spec = generate_scenario(GetParam());
  const Scenario scenario(spec);
  core::DpProblem problem = scenario.problem();
  problem.dominance_pruning = false;
  const auto plain = solve_reference_dp(problem);
  problem.dominance_pruning = true;
  problem.resolution.threads = 8;
  const auto flagged = solve_reference_dp(problem);
  ASSERT_EQ(plain.has_value(), flagged.has_value());
  if (!plain) return;
  EXPECT_EQ(plain->table_checksum, flagged->table_checksum);
  EXPECT_EQ(plain->best_cost_mah, flagged->best_cost_mah);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceAgreement, ::testing::Values(3u, 9u, 17u));

}  // namespace
}  // namespace evvo::check
