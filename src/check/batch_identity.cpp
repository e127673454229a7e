#include "check/batch_identity.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "check/scenario.hpp"
#include "common/random.hpp"
#include "core/dp_batch.hpp"
#include "core/dp_solver.hpp"
#include "core/workspace_pool.hpp"

namespace evvo::check {

namespace {

using core::DpProblem;
using core::DpSolution;

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Varies one problem of a batch against its base: departure time, window
/// contents (rigid shift keeps the list ordered and disjoint), and boundary
/// speed (snapped to the velocity grid). The route stays, so the problem
/// shares its base's group and workspace.
void perturb_lane(DpProblem& prob, Rng& rng) {
  prob.depart_time = Seconds(prob.depart_time.value() + rng.uniform(-30.0, 30.0));
  if (rng.bernoulli(0.5)) {
    std::vector<std::size_t> cands;
    for (std::size_t i = 0; i < prob.events.size(); ++i) {
      const core::LayerEvent& e = prob.events[i];
      if (e.type == core::LayerEvent::Type::kSignal && e.enforce_windows && !e.windows.empty())
        cands.push_back(i);
    }
    if (!cands.empty()) {
      core::LayerEvent& event = prob.events[cands[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(cands.size()) - 1))]];
      const double shift = rng.uniform(-6.0, 6.0);
      for (road::TimeWindow& w : event.windows) {
        w.start_s += shift;
        w.end_s += shift;
      }
    }
  }
  if (rng.bernoulli(0.3)) {
    const double dv = prob.resolution.dv_ms;
    const int max_level = static_cast<int>(std::floor(prob.route->max_speed_limit() / dv));
    prob.initial_speed =
        MetersPerSecond(static_cast<double>(rng.uniform_int(0, max_level)) * dv);
  }
}

DpSolution tampered(const DpSolution& solution) {
  std::vector<core::PlanNode> nodes = solution.profile.nodes();
  nodes[nodes.size() / 2].speed_ms += 0.25;
  return DpSolution{core::PlannedProfile(std::move(nodes)), solution.stats};
}

}  // namespace

BatchIdentityReport check_batch_identity(std::uint64_t seed,
                                         const BatchIdentityOptions& options) {
  BatchIdentityReport report;
  report.seed = seed;

  Rng rng(seed ^ 0xC4A1'5EED'0F2B'7A93ULL);
  // Up to 8 problems per scenario: enough for workspace reuse across a
  // group's problems to matter.
  constexpr std::size_t k = 4;

  // Group A is the seed's scenario; with probability 1/2 a second scenario's
  // problems are interleaved so the route grouping and input-order scatter
  // paths are exercised, not just the single-group path.
  const Scenario scen_a(generate_scenario(seed));
  const std::size_t n_a = 1 + static_cast<std::size_t>(
                                  rng.uniform_int(0, static_cast<int>(2 * k) - 1));
  std::optional<Scenario> scen_b;
  std::size_t n_b = 0;
  if (rng.bernoulli(0.5)) {
    scen_b.emplace(generate_scenario(seed ^ 0x7B5E'D41A'3C96'0FD1ULL));
    n_b = 1 + static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(2 * k) - 1));
  }

  std::vector<DpProblem> problems;
  problems.reserve(n_a + n_b);
  for (std::size_t i = 0; i < std::max(n_a, n_b); ++i) {
    if (i < n_a) {
      DpProblem prob = scen_a.problem();
      prob.checksum_tables = true;
      prob.bound_pruning = false;  // work counters are compared too
      if (i > 0) perturb_lane(prob, rng);  // lane 0 is the unmodified base
      problems.push_back(std::move(prob));
    }
    if (i < n_b) {
      DpProblem prob = scen_b->problem();
      prob.checksum_tables = true;
      prob.bound_pruning = false;  // work counters are compared too
      if (i > 0) perturb_lane(prob, rng);
      problems.push_back(std::move(prob));
    }
  }
  report.lanes = problems.size();

  core::WorkspacePool pool;
  core::DpBatchStats stats;
  std::vector<std::optional<DpSolution>> batch =
      core::solve_dp_batch(problems, pool, nullptr, &stats);
  report.groups = stats.groups;

  const auto fail = [&](const char* invariant, const std::string& detail) {
    report.violations.push_back(Violation{std::string("batch.") + invariant, detail});
  };

  // Dispatch accounting must count every problem once, and the group count
  // must match the distinct routes submitted (2 scenarios -> 2 groups;
  // distinct corridors cannot share a route hash in practice).
  if (stats.solves != problems.size()) {
    std::ostringstream detail;
    detail << "dispatch solved " << stats.solves << " problems, submitted " << problems.size();
    fail("dispatch", detail.str());
  }
  const std::size_t want_groups = scen_b.has_value() ? 2 : 1;
  if (stats.groups != want_groups) {
    std::ostringstream detail;
    detail << "grouped into " << stats.groups << " groups, expected " << want_groups;
    fail("dispatch", detail.str());
  }

  bool tamper_pending = options.tamper;
  core::DpWorkspace solo_ws;
  for (std::size_t lane = 0; lane < problems.size(); ++lane) {
    const std::optional<DpSolution> solo = core::solve_dp(problems[lane], solo_ws, nullptr);
    std::optional<DpSolution>& batched = batch[lane];
    if (batched.has_value() && tamper_pending) {
      batched = tampered(*batched);
      tamper_pending = false;
    }
    const auto lane_fail = [&](const char* invariant, const std::string& detail) {
      std::ostringstream what;
      what << "lane " << lane << ": " << detail;
      fail(invariant, what.str());
    };
    if (batched.has_value() != solo.has_value()) {
      lane_fail("feasible", batched.has_value() ? "batch found a plan, standalone did not"
                                                : "standalone found a plan, batch did not");
      continue;
    }
    if (!batched.has_value()) {
      ++report.infeasible_lanes;
      continue;
    }
    const core::DpStats& bs = batched->stats;
    const core::DpStats& ss = solo->stats;
    if (bs.layers != ss.layers || bs.velocity_levels != ss.velocity_levels ||
        bs.time_bins != ss.time_bins) {
      std::ostringstream detail;
      detail << "grid " << bs.layers << "x" << bs.velocity_levels << "x" << bs.time_bins
             << " vs " << ss.layers << "x" << ss.velocity_levels << "x" << ss.time_bins;
      lane_fail("geometry", detail.str());
    }
    if (bs.relaxations != ss.relaxations || bs.frontier_states != ss.frontier_states ||
        bs.pruned_states != ss.pruned_states) {
      std::ostringstream detail;
      detail << "work " << bs.relaxations << "/" << bs.frontier_states << "/"
             << bs.pruned_states << " vs " << ss.relaxations << "/" << ss.frontier_states
             << "/" << ss.pruned_states << " (relax/frontier/pruned)";
      lane_fail("work", detail.str());
    }
    if (bs.table_checksum != ss.table_checksum) {
      std::ostringstream detail;
      detail << "table checksum " << bs.table_checksum << " vs " << ss.table_checksum;
      lane_fail("checksum", detail.str());
    }
    if (!bits_equal(bs.best_cost_mah, ss.best_cost_mah)) {
      std::ostringstream detail;
      detail.precision(17);
      detail << "best cost " << bs.best_cost_mah << " vs " << ss.best_cost_mah;
      lane_fail("cost", detail.str());
    }
    const std::vector<core::PlanNode>& bn = batched->profile.nodes();
    const std::vector<core::PlanNode>& sn = solo->profile.nodes();
    if (bn.size() != sn.size() ||
        std::memcmp(bn.data(), sn.data(), bn.size() * sizeof(core::PlanNode)) != 0) {
      std::ostringstream detail;
      detail << "profiles differ (" << bn.size() << " vs " << sn.size() << " nodes)";
      lane_fail("profile", detail.str());
    }
  }
  return report;
}

std::string batch_report_to_string(const BatchIdentityReport& report) {
  std::ostringstream out;
  out << "batch seed " << report.seed << ": " << report.lanes << " lanes in " << report.groups
      << " group(s) (" << report.infeasible_lanes << " infeasible)";
  if (report.ok()) {
    out << ": OK\n";
  } else {
    out << ": " << report.violations.size() << " violation(s)\n";
    for (const Violation& v : report.violations)
      out << "  [" << v.invariant << "] " << v.detail << "\n";
  }
  return out.str();
}

}  // namespace evvo::check
