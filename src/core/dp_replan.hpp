// Incremental warm-start layer over the time-expanded DP (rolling-horizon
// replanning).
//
// A fleet replans every few seconds, and consecutive solves of one corridor
// differ only slightly: a queue prediction update shifts a handful of T_q
// windows, or the vehicle advances along its own plan. The solver's forward
// relaxation is layer-local - relax_layer(i) reads only layer i's table and
// the events at layers i and i+1 - so when every input that feeds layers
// [0, E) is unchanged, those layers' cost/time/backpointer tables from the
// previous solve are bit-identical to what a cold solve would recompute, and
// the sweep may resume at the first dirty layer E over the pooled
// DpWorkspace tables ("dirty-stripe" re-relaxation; stripes are the
// distance-layer rows of the time-expanded grid).
//
// The warm path is exact, not approximate: solve_dp_incremental() produces
// the same table checksum, optimal cost, and profile bytes as solve_dp() on
// the same problem, for every classification it makes. Anything it cannot
// prove bit-identical (changed start state, rolled horizon, different route,
// a clobbered workspace) degrades to a cold solve over the same workspace.
// The --replan fuzz chains (src/check/replan_chain.hpp) replay perturbation
// sequences and assert warm == cold per step.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/dp_solver.hpp"

namespace evvo::core {

/// Scalar fingerprint of everything - besides the per-layer events and the
/// pruning flag, which are diffed separately - that feeds the DP tables.
/// Deliberately excluded: resolution.threads (ignored) and resolution.simd
/// (either value is bit-identical, see DpResolution) and checksum_tables (a
/// read-only scan).
/// The route is captured by content hash, not address: replans solve
/// short-lived suffix routes whose stack addresses recur.
struct DpProblemKey {
  std::uint64_t route_hash = 0;
  const void* energy = nullptr;
  double route_length_m = 0.0;
  double depart_time_s = 0.0;
  double ds_m = 0.0;
  double dv_ms = 0.0;
  double dt_s = 0.0;
  double horizon_s = 0.0;
  double initial_speed_ms = 0.0;
  double final_speed_ms = 0.0;
  double smoothness_weight = 0.0;
  double time_weight = 0.0;
  int penalty_mode = 0;
  double penalty_m = 0.0;
  double penalty_additive_mah = 0.0;
  double penalty_min_cost_mah = 0.0;

  bool operator==(const DpProblemKey&) const = default;

  static DpProblemKey of(const DpProblem& problem);
};

/// How a warm solve may proceed relative to the previous one.
struct ReplanDelta {
  enum class Path {
    kSpliced,  ///< nothing dirty: the previous solution is returned verbatim
    kStripes,  ///< re-relax layers [first_relax, n_layers-1), reuse the prefix
    kCold,     ///< full solve (fingerprint changed or no usable warm state)
  };
  Path path = Path::kCold;
  std::size_t first_relax = 0;  ///< kStripes: first dirty relaxation index
  const char* reason = "";      ///< kCold: why warm start was not possible
};

/// The dirty-stripe frontier rule: the first relaxation index whose inputs
/// differ between the two event lists (with `n_layers` grid layers), or
/// std::nullopt when no relaxation can differ (empty frontier - the edit was
/// a no-op as far as the DP is concerned, e.g. identical windows re-sent, or
/// windows changed on a signal that does not enforce them).
///
/// Per relaxation index i in [0, n_layers-1), relax_layer(i) reads
///  - the full event view at layer i (presence, type, dwell, enforce flag,
///    and the windows iff enforced), so any view change at layer L dirties
///    index L;
///  - only "is there a stop sign" at layer i+1, so a stop-sign
///    appearance/disappearance at layer L additionally dirties index L-1;
///  - the dominance-pruning predicate `pruning && i > last enforced window
///    layer`, so a pruning toggle or a change of the last enforced layer
///    dirties the first index where the predicate flips.
/// The affected set is always the contiguous suffix [E, n_layers-1): layer
/// E+1's table is written by relaxation E, which makes every later
/// relaxation's input potentially dirty.
std::optional<std::size_t> first_dirty_relax(const std::vector<LayerEvent>& prev_events,
                                             const std::vector<LayerEvent>& next_events,
                                             std::size_t n_layers, bool prev_pruning,
                                             bool next_pruning);

/// Classifies `next` against the previous solve's key + events. kStripes is
/// only returned with 0 < first_relax < n_layers - 1; an edit reaching
/// relaxation 0 is reported as kCold (re-relaxing everything IS the cold
/// solve), and a fingerprint mismatch of any scalar (start state, depart
/// time, horizon, route, weights, ...) is kCold by definition - those change
/// the float sums in every layer, so no table prefix can be reused exactly.
ReplanDelta classify_replan(const DpProblemKey& prev_key,
                            const std::vector<LayerEvent>& prev_events, bool prev_pruning,
                            const DpProblem& next);

/// Snapshot of the last solve run over a particular workspace; the caller
/// keeps it alongside the workspace (VelocityPlanner pools them together)
/// and passes both back on the next solve. All fields are managed by
/// solve_dp_incremental().
struct [[nodiscard]] DpPrevSolution {
  bool valid = false;
  /// DpWorkspace::solve_serial() observed right after the recorded solve;
  /// a mismatch means another solve used the workspace in between and the
  /// tables no longer hold this solution (cold fallback).
  std::uint64_t workspace_serial = 0;
  DpProblemKey key{};
  std::vector<LayerEvent> events;
  bool dominance_pruning = true;
  /// Incumbent bound the recorded tables were pruned under (+inf: unpruned);
  /// a warm resume over them must reuse it (core/dp_solver.hpp).
  float bound_ub = std::numeric_limits<float>::infinity();
  bool had_checksum = false;
  /// Engaged exactly when `valid` (PlannedProfile has no empty state).
  std::optional<DpSolution> solution;

  void reset() { *this = DpPrevSolution{}; }
};

/// Diagnostics of one incremental solve (how much work was skipped).
struct [[nodiscard]] DpReplanStats {
  ReplanDelta::Path path = ReplanDelta::Path::kCold;
  std::size_t first_relax = 0;     ///< first executed relaxation (kStripes)
  std::size_t relaxed_layers = 0;  ///< layer relaxations actually run
  std::size_t total_layers = 0;    ///< layer relaxations a cold solve runs
  const char* cold_reason = "";    ///< why the solve went cold (kCold only)
  /// kCold because a warm resume's reused incumbent did not certify.
  bool bound_fallback = false;
};

/// solve_dp with warm-start: classifies `problem` against `prev` (the last
/// solve over `workspace`), then splices, re-relaxes the dirty suffix, or
/// solves cold - whichever is cheapest while staying bit-identical to
/// solve_dp(problem) in table checksum, cost, stats geometry, and profile.
/// Updates `prev` to describe this solve (or resets it when the solve is
/// infeasible or throws). DpStats counters (relaxations, frontier_states,
/// pruned_states) cover only the work actually executed on the kStripes
/// path; everything a caller can observe through the solution itself is
/// exact.
[[nodiscard]] std::optional<DpSolution> solve_dp_incremental(const DpProblem& problem,
                                                             DpPrevSolution& prev,
                                                             DpWorkspace& workspace,
                                                             DpReplanStats* replan_stats = nullptr);

}  // namespace evvo::core
