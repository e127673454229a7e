#include "check/replan_chain.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <sstream>
#include <utility>

#include "common/random.hpp"
#include "core/dp_replan.hpp"
#include "core/dp_solver.hpp"
#include "road/corridor.hpp"

namespace evvo::check {

namespace {

using core::DpSolution;
using core::ReplanDelta;

/// What one chain step did to the problem; determines the classification the
/// warm solver must take.
struct Applied {
  enum class Kind { kBootstrap, kNoop, kWindow, kAdvance, kJitter, kHorizon };
  Kind kind = Kind::kBootstrap;
  std::size_t layer = 0;  ///< kWindow: grid layer of the edited event

  const char* name() const {
    switch (kind) {
      case Kind::kBootstrap: return "bootstrap";
      case Kind::kNoop: return "noop";
      case Kind::kWindow: return "window";
      case Kind::kAdvance: return "advance";
      case Kind::kJitter: return "jitter";
      case Kind::kHorizon: return "horizon";
    }
    return "?";
  }
};

const char* path_name(ReplanDelta::Path path) {
  switch (path) {
    case ReplanDelta::Path::kSpliced: return "spliced";
    case ReplanDelta::Path::kStripes: return "stripes";
    case ReplanDelta::Path::kCold: return "cold";
  }
  return "?";
}

/// The evolving problem. The corridor is owned here (advances replace it
/// with its own suffix) and prob.route always points into it.
struct ChainState {
  road::Corridor corridor;
  core::DpProblem prob;

  explicit ChainState(road::Corridor c) : corridor(std::move(c)) {}

  std::size_t n_hops() const {
    return static_cast<std::size_t>(
        std::max(1.0, std::round(corridor.length() / prob.resolution.ds_m)));
  }
};

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Nudges one bound of one T_q window on an enforced signal, staying inside
/// the neighboring windows so the list remains ordered and disjoint. Returns
/// the event's layer, or nullopt when the problem has no editable window or
/// the draw landed on the old value (the step is then a no-op resubmission).
std::optional<std::size_t> nudge_window(ChainState& state, Rng& rng) {
  std::vector<std::size_t> cands;
  for (std::size_t i = 0; i < state.prob.events.size(); ++i) {
    const core::LayerEvent& e = state.prob.events[i];
    if (e.type == core::LayerEvent::Type::kSignal && e.enforce_windows && !e.windows.empty())
      cands.push_back(i);
  }
  if (cands.empty()) return std::nullopt;
  core::LayerEvent& event =
      state.prob.events[cands[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(cands.size()) - 1))]];
  const std::size_t wi = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(event.windows.size()) - 1));
  road::TimeWindow& w = event.windows[wi];
  const bool move_start = rng.bernoulli(0.5);
  double lo, hi;
  if (move_start) {
    lo = wi > 0 ? event.windows[wi - 1].end_s + 0.1 : w.start_s - 8.0;
    hi = w.end_s - 0.5;
  } else {
    lo = w.start_s + 0.5;
    hi = wi + 1 < event.windows.size() ? event.windows[wi + 1].start_s - 0.1 : w.end_s + 8.0;
  }
  if (hi <= lo) return std::nullopt;
  double& bound = move_start ? w.start_s : w.end_s;
  const double picked = rng.uniform(lo, hi);
  if (bits_equal(picked, bound)) return std::nullopt;
  bound = picked;
  return event.layer;
}

/// Advances the start state along the previous plan to a mid-route grid node:
/// suffix corridor, events rebased by the passed layer count, new depart time
/// and initial speed. ds is rescaled so the solver's round() reproduces
/// exactly n_hops - k hops on the suffix (the grid stays aligned with the
/// rebased event layers). The old plan's tail remains feasible for the new
/// problem, so the chain does not starve itself. Returns false when the plan
/// has no usable interior node.
bool advance_start(ChainState& state, const core::PlannedProfile& last_plan, Rng& rng) {
  const std::size_t n_hops = state.n_hops();
  if (n_hops < 3) return false;
  const double length = state.corridor.length();
  const double ds = length / static_cast<double>(n_hops);
  const std::vector<core::PlanNode>& nodes = last_plan.nodes();
  std::vector<std::size_t> cands;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto k = static_cast<std::size_t>(std::llround(nodes[i].position_m / ds));
    if (k >= 1 && k + 2 <= n_hops) cands.push_back(i);
  }
  if (cands.empty()) return false;
  const core::PlanNode& node =
      nodes[cands[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(cands.size()) - 1))]];
  const auto k = static_cast<std::size_t>(std::llround(node.position_m / ds));

  road::Corridor rest = road::corridor_suffix(state.corridor, node.position_m);
  std::vector<core::LayerEvent> events;
  for (const core::LayerEvent& e : state.prob.events) {
    if (e.layer <= k) continue;  // passed (or standing at) it already
    core::LayerEvent moved = e;
    moved.layer = e.layer - k;
    events.push_back(std::move(moved));
  }
  state.corridor = std::move(rest);
  state.prob.route = &state.corridor.route;
  state.prob.events = std::move(events);
  state.prob.resolution.ds_m =
      state.corridor.length() / static_cast<double>(n_hops - k);
  state.prob.depart_time = Seconds(node.time_s);
  state.prob.initial_speed = MetersPerSecond(
      std::clamp(node.speed_ms, 0.0, state.corridor.route.speed_limit_at(0.0)));
  return true;
}

DpSolution tampered(const DpSolution& solution) {
  std::vector<core::PlanNode> nodes = solution.profile.nodes();
  nodes[nodes.size() / 2].speed_ms += 0.25;
  return DpSolution{core::PlannedProfile(std::move(nodes)), solution.stats};
}

}  // namespace

ReplanChainReport check_replan_chain(std::uint64_t seed, const ReplanChainOptions& options) {
  ReplanChainReport report;
  report.seed = seed;

  const ScenarioSpec spec = generate_scenario(seed);
  const Scenario scen(spec);  // owns the energy model prob.energy points at

  ChainState state(scen.corridor());
  state.prob = scen.problem();
  state.prob.route = &state.corridor.route;
  state.prob.checksum_tables = true;  // exact chains assert table identity
  state.prob.bound_pruning = options.bound_pruning;

  Rng rng(seed ^ 0xC4A1'5EED'0F2B'7A93ULL);
  core::DpWorkspace warm_ws, cold_ws;
  core::DpPrevSolution prev;
  bool warm_available = false;
  std::optional<core::PlannedProfile> last_plan;
  bool tamper_pending = options.tamper;

  const auto fail = [&](std::size_t step, const Applied& applied, const char* invariant,
                        const std::string& detail) {
    std::ostringstream what;
    what << "step " << step << " (" << applied.name() << "): " << detail;
    report.violations.push_back(Violation{std::string("replan.") + invariant, what.str()});
  };

  for (std::size_t step = 0; step <= options.steps; ++step) {
    // Mutate (step 0 is the bootstrap solve of the scenario as generated).
    // Steps 1 and 2 deterministically exercise the splice and stripe paths
    // so every chain covers them; later steps draw from the full mix.
    Applied applied;
    if (step == 0) {
      applied.kind = Applied::Kind::kBootstrap;
    } else {
      int pick;
      if (step == 1) pick = 0;       // resubmission -> splice
      else if (step == 2) pick = 1;  // window edit -> stripes
      else {
        const double r = rng.uniform();
        pick = r < 0.10 ? 0 : r < 0.50 ? 1 : r < 0.70 ? 2 : r < 0.85 ? 3 : 4;
      }
      switch (pick) {
        case 0:
          applied.kind = Applied::Kind::kNoop;
          break;
        case 1: {
          const std::optional<std::size_t> layer = nudge_window(state, rng);
          if (layer.has_value()) {
            applied.kind = Applied::Kind::kWindow;
            applied.layer = *layer;
          } else {
            applied.kind = Applied::Kind::kNoop;  // nothing editable
          }
          break;
        }
        case 2:
          if (last_plan.has_value() && advance_start(state, *last_plan, rng)) {
            applied.kind = Applied::Kind::kAdvance;
            break;
          }
          [[fallthrough]];  // no plan to advance along: jitter instead
        case 3: {
          applied.kind = Applied::Kind::kJitter;
          double delta = 0.0;
          while (delta == 0.0) delta = rng.uniform(-3.0, 3.0);
          state.prob.depart_time = Seconds(state.prob.depart_time.value() + delta);
          break;
        }
        default:
          applied.kind = Applied::Kind::kHorizon;
          state.prob.resolution.horizon_s +=
              state.prob.resolution.dt_s * rng.uniform_int(1, 30);
          break;
      }
    }

    // Solve warm and cold, independently.
    core::DpReplanStats rstats;
    std::optional<DpSolution> warm =
        core::solve_dp_incremental(state.prob, prev, warm_ws, &rstats);
    const std::optional<DpSolution> cold = core::solve_dp(state.prob, cold_ws);
    ++report.steps;
    report.relaxed_layers += rstats.relaxed_layers;
    report.total_layers += rstats.total_layers;
    switch (rstats.path) {
      case ReplanDelta::Path::kSpliced: ++report.spliced_steps; break;
      case ReplanDelta::Path::kStripes: ++report.striped_steps; break;
      case ReplanDelta::Path::kCold: ++report.cold_steps; break;
    }

    // The warm path must be exactly as incremental as the perturbation
    // allows: resubmissions splice, a window edit re-relaxes from exactly
    // the event's layer, everything else (and any step without a usable warm
    // state) goes cold.
    ReplanDelta::Path expected = ReplanDelta::Path::kCold;
    if (warm_available && applied.kind == Applied::Kind::kNoop)
      expected = ReplanDelta::Path::kSpliced;
    else if (warm_available && applied.kind == Applied::Kind::kWindow)
      expected = ReplanDelta::Path::kStripes;
    // A bound-pruned window edit may fall back to cold when the reused
    // incumbent no longer certifies; that is the documented fallback.
    if (options.bound_pruning && expected == ReplanDelta::Path::kStripes &&
        rstats.bound_fallback) {
      ++report.bound_fallbacks;
    } else if (rstats.path != expected) {
      std::ostringstream detail;
      detail << "took " << path_name(rstats.path) << ", entitled to " << path_name(expected);
      if (rstats.path == ReplanDelta::Path::kCold) detail << " (" << rstats.cold_reason << ")";
      fail(step, applied, "path", detail.str());
    } else if (expected == ReplanDelta::Path::kStripes && rstats.first_relax != applied.layer) {
      std::ostringstream detail;
      detail << "re-relaxed from layer " << rstats.first_relax << ", edit was at layer "
             << applied.layer;
      fail(step, applied, "path", detail.str());
    }

    // Identity: a warm solve must be indistinguishable from the cold one.
    if (warm.has_value() && tamper_pending) {
      warm = tampered(*warm);
      tamper_pending = false;
    }
    if (warm.has_value() != cold.has_value()) {
      fail(step, applied, "feasible",
           warm.has_value() ? "warm found a plan, cold did not" : "cold found a plan, warm did not");
      warm_available = false;
      last_plan.reset();
      continue;
    }
    if (!warm.has_value()) {
      ++report.infeasible_steps;
      warm_available = false;
      last_plan.reset();
      continue;
    }
    const core::DpStats& ws = warm->stats;
    const core::DpStats& cs = cold->stats;
    if (ws.layers != cs.layers || ws.velocity_levels != cs.velocity_levels ||
        ws.time_bins != cs.time_bins) {
      std::ostringstream detail;
      detail << "grid " << ws.layers << "x" << ws.velocity_levels << "x" << ws.time_bins
             << " vs " << cs.layers << "x" << cs.velocity_levels << "x" << cs.time_bins;
      fail(step, applied, "geometry", detail.str());
    }
    if (!options.bound_pruning && ws.table_checksum != cs.table_checksum) {
      std::ostringstream detail;
      detail << "table checksum " << ws.table_checksum << " vs " << cs.table_checksum;
      fail(step, applied, "checksum", detail.str());
    }
    if (!bits_equal(ws.best_cost_mah, cs.best_cost_mah)) {
      std::ostringstream detail;
      detail.precision(17);
      detail << "best cost " << ws.best_cost_mah << " vs " << cs.best_cost_mah;
      fail(step, applied, "cost", detail.str());
    }
    const std::vector<core::PlanNode>& wn = warm->profile.nodes();
    const std::vector<core::PlanNode>& cn = cold->profile.nodes();
    if (wn.size() != cn.size() ||
        std::memcmp(wn.data(), cn.data(), wn.size() * sizeof(core::PlanNode)) != 0) {
      std::ostringstream detail;
      detail << "profiles differ (" << wn.size() << " vs " << cn.size() << " nodes)";
      fail(step, applied, "profile", detail.str());
    }
    warm_available = true;
    last_plan = cold->profile;
  }
  return report;
}

std::string replan_report_to_string(const ReplanChainReport& report) {
  std::ostringstream out;
  out << "chain seed " << report.seed << ": " << report.steps << " steps ("
      << report.spliced_steps << " spliced, " << report.striped_steps << " striped, "
      << report.cold_steps << " cold, " << report.infeasible_steps << " infeasible, "
      << report.bound_fallbacks << " bound fallbacks), warm relaxed "
      << report.relaxed_layers << "/" << report.total_layers << " layers";
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
