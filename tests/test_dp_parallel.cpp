// Parallel-solver equivalence: the stripe-parallel relaxation must produce
// bit-identical plans at every thread count (gather formulation, see
// dp_solver.hpp), workspaces must be reusable across solves, and dominance
// pruning must agree with the exhaustive sweep on the optimal cost.
#include "core/dp_solver.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/dp_common.hpp"
#include "core/planner.hpp"
#include "ev/energy_model.hpp"
#include "road/corridor.hpp"

namespace evvo::core {
namespace {

/// A DpProblem over a random corridor with queue-aware windows, built the
/// same way VelocityPlanner does (via build_events).
struct Scenario {
  road::Corridor corridor;
  ev::EnergyModel energy;
  std::vector<LayerEvent> events;
  DpProblem problem;

  explicit Scenario(std::uint64_t seed, double depart_time_s = 0.0)
      : corridor(road::make_random_corridor(seed)) {
    PlannerConfig cfg;
    cfg.policy = SignalPolicy::kQueueAware;
    cfg.resolution.horizon_s = 700.0;
    const VelocityPlanner planner(corridor, energy, cfg);
    const auto arrivals = std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(500.0));
    events = planner.build_events(Seconds(depart_time_s), arrivals);

    problem.route = &corridor.route;
    problem.energy = &energy;
    problem.depart_time = Seconds(depart_time_s);
    problem.resolution = cfg.resolution;
    problem.time_weight_mah_per_s = cfg.time_weight_mah_per_s;
    problem.smoothness_weight_mah_per_ms = cfg.smoothness_weight_mah_per_ms;
    problem.events = events;
  }
};

bool profiles_bit_identical(const PlannedProfile& a, const PlannedProfile& b) {
  if (a.nodes().size() != b.nodes().size()) return false;
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    if (std::memcmp(&a.nodes()[i], &b.nodes()[i], sizeof(PlanNode)) != 0) return false;
  }
  return true;
}

class ParallelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelEquivalence, EveryThreadCountMatchesSerialBitForBit) {
  Scenario scenario(GetParam());
  const auto serial = solve_dp(scenario.problem);
  ASSERT_TRUE(serial.has_value());

  for (unsigned threads : {2u, 4u, 8u}) {
    common::ThreadPool pool(threads);
    DpWorkspace workspace;
    scenario.problem.resolution.threads = threads;
    const auto parallel = solve_dp(scenario.problem, workspace, &pool);
    ASSERT_TRUE(parallel.has_value()) << "threads=" << threads;
    EXPECT_TRUE(profiles_bit_identical(serial->profile, parallel->profile))
        << "threads=" << threads;
    EXPECT_EQ(serial->stats.best_cost_mah, parallel->stats.best_cost_mah);
    EXPECT_EQ(serial->stats.relaxations, parallel->stats.relaxations);
    EXPECT_EQ(serial->stats.frontier_states, parallel->stats.frontier_states);
    EXPECT_EQ(serial->stats.pruned_states, parallel->stats.pruned_states);
  }
}

TEST_P(ParallelEquivalence, DominancePruningAgreesWithExhaustiveSweep) {
  Scenario scenario(GetParam());
  scenario.problem.dominance_pruning = true;
  const auto pruned = solve_dp(scenario.problem);
  scenario.problem.dominance_pruning = false;
  const auto full = solve_dp(scenario.problem);
  ASSERT_TRUE(pruned.has_value());
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(pruned->stats.best_cost_mah, full->stats.best_cost_mah);
  EXPECT_TRUE(profiles_bit_identical(pruned->profile, full->profile));
  EXPECT_LE(pruned->stats.relaxations, full->stats.relaxations);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEquivalence,
                         ::testing::Values(1u, 5u, 13u, 21u, 34u));

// ---------------------------------------------------------------------------
// Golden-checksum regression on the paper's 4.2 km US-25 corridor.
//
// Pins the full DP state-table checksum (every finite-cost cell's cost,
// arrival time, and backpointer) and an FNV-1a hash of the extracted profile
// against a committed golden file. The same values must come out at every
// thread count and in both pruning modes, so any change to relaxation order,
// float rounding, pruning, or backtracking shows up as a one-line diff here
// before it can silently shift Fig. 6-8 numbers. Regenerate deliberately with
//   EVVO_UPDATE_GOLDEN=1 ./test_dp_parallel
// and commit the new tests/golden/us25_golden.txt alongside the change that
// explains it.
// ---------------------------------------------------------------------------

std::uint64_t hash_profile(const PlannedProfile& profile) {
  detail::TableHasher hasher;
  const auto mix_double = [&hasher](double value) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    hasher.mix_u64(bits);
  };
  for (const PlanNode& node : profile.nodes()) {
    mix_double(node.position_m);
    mix_double(node.speed_ms);
    mix_double(node.time_s);
    mix_double(node.energy_mah);
  }
  return hasher.value();
}

struct Us25Golden {
  std::uint64_t unpruned_checksum = 0;
  std::uint64_t pruned_checksum = 0;
  std::uint64_t profile_hash = 0;
  std::uint64_t best_cost_bits = 0;
};

std::string golden_path() { return std::string(EVVO_GOLDEN_DIR) + "/us25_golden.txt"; }

std::optional<Us25Golden> read_golden() {
  std::ifstream in(golden_path());
  if (!in) return std::nullopt;
  Us25Golden golden;
  std::string key;
  while (in >> key) {
    if (key == "us25-golden") {
      std::string version;
      in >> version;
    } else if (key == "unpruned_checksum") {
      in >> std::hex >> golden.unpruned_checksum >> std::dec;
    } else if (key == "pruned_checksum") {
      in >> std::hex >> golden.pruned_checksum >> std::dec;
    } else if (key == "profile_hash") {
      in >> std::hex >> golden.profile_hash >> std::dec;
    } else if (key == "best_cost_bits") {
      in >> std::hex >> golden.best_cost_bits >> std::dec;
    } else {
      return std::nullopt;
    }
  }
  return golden;
}

void write_golden(const Us25Golden& golden) {
  std::ofstream out(golden_path());
  out << "us25-golden v1\n" << std::hex;
  out << "unpruned_checksum " << golden.unpruned_checksum << "\n";
  out << "pruned_checksum " << golden.pruned_checksum << "\n";
  out << "profile_hash " << golden.profile_hash << "\n";
  out << "best_cost_bits " << golden.best_cost_bits << "\n";
}

/// The pinned US-25 solve: queue-aware windows at 600 veh/h, departing 60 s.
DpProblem us25_golden_problem(const road::Corridor& corridor, const ev::EnergyModel& energy) {
  PlannerConfig cfg;
  cfg.policy = SignalPolicy::kQueueAware;
  cfg.resolution.ds_m = 15.0;
  cfg.resolution.dv_ms = 1.0;
  cfg.resolution.dt_s = 1.0;
  cfg.resolution.horizon_s = 480.0;
  const VelocityPlanner planner(corridor, energy, cfg);
  const auto arrivals = std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(600.0));

  DpProblem problem;
  problem.route = &corridor.route;
  problem.energy = &energy;
  problem.depart_time = Seconds(60.0);
  problem.resolution = cfg.resolution;
  problem.time_weight_mah_per_s = cfg.time_weight_mah_per_s;
  problem.smoothness_weight_mah_per_ms = cfg.smoothness_weight_mah_per_ms;
  problem.events = planner.build_events(Seconds(problem.depart_time.value()), arrivals);
  return problem;
}

TEST(Us25GoldenChecksum, TablesAndProfilePinnedAcrossThreadsAndPruning) {
  const road::Corridor corridor = road::make_us25_corridor();
  ev::EnergyModel energy;
  DpProblem problem = us25_golden_problem(corridor, energy);
  problem.checksum_tables = true;
  problem.bound_pruning = false;  // the pinned checksums are the exhaustive tables'

  common::ThreadPool pool(8);
  DpWorkspace workspace;
  Us25Golden computed;
  std::optional<PlannedProfile> first_profile;
  for (const bool pruning : {false, true}) {
    problem.dominance_pruning = pruning;
    std::uint64_t mode_checksum = 0;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      problem.resolution.threads = threads;
      const auto solution = threads == 1 ? solve_dp(problem) : solve_dp(problem, workspace, &pool);
      ASSERT_TRUE(solution.has_value()) << "pruning=" << pruning << " threads=" << threads;

      // Within a pruning mode, the state tables are bit-identical at every
      // thread count; the extracted profile and cost match across modes too.
      if (threads == 1) {
        mode_checksum = solution->stats.table_checksum;
      } else {
        EXPECT_EQ(solution->stats.table_checksum, mode_checksum)
            << "pruning=" << pruning << " threads=" << threads;
      }
      if (!first_profile) {
        first_profile = solution->profile;
        computed.profile_hash = hash_profile(solution->profile);
        std::memcpy(&computed.best_cost_bits, &solution->stats.best_cost_mah,
                    sizeof computed.best_cost_bits);
      } else {
        EXPECT_TRUE(profiles_bit_identical(*first_profile, solution->profile))
            << "pruning=" << pruning << " threads=" << threads;
        std::uint64_t cost_bits = 0;
        std::memcpy(&cost_bits, &solution->stats.best_cost_mah, sizeof cost_bits);
        EXPECT_EQ(cost_bits, computed.best_cost_bits)
            << "pruning=" << pruning << " threads=" << threads;
      }
    }
    (pruning ? computed.pruned_checksum : computed.unpruned_checksum) = mode_checksum;
  }

  if (std::getenv("EVVO_UPDATE_GOLDEN") != nullptr) {
    write_golden(computed);
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }
  const std::optional<Us25Golden> golden = read_golden();
  ASSERT_TRUE(golden.has_value()) << "missing/unreadable " << golden_path()
                                  << " (regenerate with EVVO_UPDATE_GOLDEN=1)";
  EXPECT_EQ(computed.unpruned_checksum, golden->unpruned_checksum);
  EXPECT_EQ(computed.pruned_checksum, golden->pruned_checksum);
  EXPECT_EQ(computed.profile_hash, golden->profile_hash);
  EXPECT_EQ(computed.best_cost_bits, golden->best_cost_bits);
}

TEST(Us25GoldenChecksum, BoundPruningKeepsThePinnedProfileAndCost) {
  // Bound pruning changes the tables (and so their checksums) but, by its
  // certification rule, never the optimum: profile and cost stay pinned.
  const road::Corridor corridor = road::make_us25_corridor();
  ev::EnergyModel energy;
  DpProblem problem = us25_golden_problem(corridor, energy);
  const std::optional<Us25Golden> golden = read_golden();
  ASSERT_TRUE(golden.has_value());
  common::ThreadPool pool(4);
  DpWorkspace workspace;
  for (const bool pruning : {false, true}) {
    problem.dominance_pruning = pruning;
    for (unsigned threads : {1u, 4u}) {
      problem.resolution.threads = threads;
      const auto solution = solve_dp(problem, workspace, threads == 1 ? nullptr : &pool);
      ASSERT_TRUE(solution.has_value());
      std::uint64_t cost_bits = 0;
      std::memcpy(&cost_bits, &solution->stats.best_cost_mah, sizeof cost_bits);
      EXPECT_EQ(hash_profile(solution->profile), golden->profile_hash)
          << "pruning=" << pruning << " threads=" << threads;
      EXPECT_EQ(cost_bits, golden->best_cost_bits);
      EXPECT_GE(solution->stats.bound_attempts, 1u);
      EXPECT_LE(solution->stats.bound_mah, solution->stats.best_cost_mah);
    }
  }
}

TEST(DpWorkspace, ReuseAcrossSolvesAndProblems) {
  common::ThreadPool pool(4);
  DpWorkspace workspace;
  Scenario first(3), second(8, 120.0);
  first.problem.resolution.threads = 4;
  second.problem.resolution.threads = 4;

  const auto a1 = solve_dp(first.problem);
  const auto b1 = solve_dp(second.problem);
  ASSERT_TRUE(a1 && b1);

  // Interleave solves on one workspace: the generation-stamped reset and the
  // model-table cache must never leak state between problems.
  for (int round = 0; round < 3; ++round) {
    const auto a2 = solve_dp(first.problem, workspace, &pool);
    ASSERT_TRUE(a2.has_value());
    EXPECT_TRUE(profiles_bit_identical(a1->profile, a2->profile)) << "round " << round;
    const auto b2 = solve_dp(second.problem, workspace, &pool);
    ASSERT_TRUE(b2.has_value());
    EXPECT_TRUE(profiles_bit_identical(b1->profile, b2->profile)) << "round " << round;
  }
  EXPECT_GT(workspace.state_bytes(), 0u);

  // Perturbed problems over the same route share the workspace's cached model
  // tables: departure jitter, one signal's windows shifted, a moving start.
  // Each must match a solve on a fresh workspace table for table, with the
  // exhaustive sweep so the checksum and work counters are comparable.
  std::vector<DpProblem> variants(4, first.problem);
  variants[1].depart_time = Seconds(17.0);
  for (LayerEvent& event : variants[2].events) {
    if (event.type != LayerEvent::Type::kSignal || event.windows.empty()) continue;
    for (road::TimeWindow& w : event.windows) {
      w.start_s += 4.0;
      w.end_s += 4.0;
    }
    break;
  }
  variants[3].initial_speed = MetersPerSecond(5.0);
  std::vector<std::optional<DpSolution>> fresh;
  for (DpProblem& problem : variants) {
    problem.checksum_tables = true;
    problem.bound_pruning = false;
    DpWorkspace own;
    fresh.push_back(solve_dp(problem, own, nullptr));
    ASSERT_TRUE(fresh.back().has_value());
  }
  for (int round = 0; round < 2; ++round) {
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const auto reused = solve_dp(variants[v], workspace, &pool);
      ASSERT_TRUE(reused.has_value()) << "variant " << v;
      const DpStats& got = reused->stats;
      const DpStats& want = fresh[v]->stats;
      EXPECT_EQ(got.table_checksum, want.table_checksum) << "variant " << v;
      EXPECT_EQ(got.relaxations, want.relaxations) << "variant " << v;
      EXPECT_EQ(got.frontier_states, want.frontier_states) << "variant " << v;
      EXPECT_EQ(got.pruned_states, want.pruned_states) << "variant " << v;
      EXPECT_EQ(std::memcmp(&got.best_cost_mah, &want.best_cost_mah, sizeof(double)), 0)
          << "variant " << v;
      EXPECT_TRUE(profiles_bit_identical(fresh[v]->profile, reused->profile))
          << "variant " << v << " round " << round;
    }
  }
}

TEST(DpWorkspace, ConcurrentPlannerCallsAgree) {
  // VelocityPlanner checks a workspace out per call; hammer one planner from
  // several threads and require every result to equal the serial answer.
  Scenario scenario(2);
  PlannerConfig cfg;
  cfg.policy = SignalPolicy::kQueueAware;
  cfg.resolution.horizon_s = 700.0;
  const VelocityPlanner planner(scenario.corridor, scenario.energy, cfg);
  const auto arrivals = std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(500.0));
  const PlannedProfile reference = planner.plan(Seconds(0.0), arrivals);

  constexpr int kThreads = 4;
  std::vector<std::optional<PlannedProfile>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { results[t] = planner.plan(Seconds(0.0), arrivals); });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].has_value());
    EXPECT_TRUE(profiles_bit_identical(reference, *results[t])) << "thread " << t;
  }
}

}  // namespace
}  // namespace evvo::core
