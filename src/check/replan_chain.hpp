// Perturbation-chain oracle for the incremental warm-start DP
// (core/dp_replan.hpp).
//
// One chain generates a scenario from its seed, solves it cold, then replays
// a seeded sequence of the perturbations a rolling-horizon replanner
// produces: single T_q window edits (the dirty-stripe path), identical
// resubmissions (the splice path), start-state advances along the previous
// plan (suffix corridor + new depart time), horizon rolls, and departure
// jitter (cold fingerprint changes). After every perturbation the problem is
// solved twice - warm through solve_dp_incremental() over one persistent
// workspace + previous-solve snapshot, and cold through solve_dp() over a
// separate workspace - and the results must agree bit-for-bit: feasibility,
// full state-table checksum, optimal cost, and every profile byte. The
// classification taken by the warm solver is also checked against the path
// the perturbation entitles it to (a window edit must re-relax exactly from
// the event's layer, a resubmission must splice, a fingerprint change must
// go cold), so the oracle fails both if warm-starting is ever wrong AND if
// it silently stops being incremental.
//
// With bound pruning on, warm and cold sweeps may prune under different
// incumbents, so their tables legitimately differ: the chain then compares
// feasibility, optimal cost and profile bytes only, and accepts a warm
// window edit falling back to cold when its reused incumbent does not
// certify.
//
// `evvo_fuzz --replan` drives many chains, both ways; the tamper option
// corrupts one warm result so the harness can prove the oracle fires.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/invariants.hpp"

namespace evvo::check {

struct ReplanChainOptions {
  /// Perturbation steps after the bootstrap solve.
  std::size_t steps = 8;
  /// Corrupt one warm profile node before comparison; the chain must then
  /// report a violation (oracle self-test, wired to `evvo_fuzz --inject`).
  bool tamper = false;
  /// Solve both sides bound-pruned (see the header comment); off compares
  /// the exhaustive sweeps' full tables.
  bool bound_pruning = false;
};

struct [[nodiscard]] ReplanChainReport {
  std::uint64_t seed = 0;
  std::size_t steps = 0;             ///< solves run (bootstrap + perturbations)
  std::size_t spliced_steps = 0;     ///< warm solves served verbatim
  std::size_t striped_steps = 0;     ///< warm solves that re-relaxed a suffix
  std::size_t cold_steps = 0;        ///< warm solves that degraded to cold
  std::size_t relaxed_layers = 0;    ///< layer relaxations the warm side ran
  std::size_t total_layers = 0;      ///< layer relaxations the cold side ran
  std::size_t infeasible_steps = 0;  ///< steps where both sides found no plan
  std::size_t bound_fallbacks = 0;   ///< warm window edits re-solved cold (bound)
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
};

/// Replays one perturbation chain. Deterministic in (seed, options). Never
/// throws for scenario-content problems; solver preconditions violated by
/// the chain itself would be programming errors and escape.
ReplanChainReport check_replan_chain(std::uint64_t seed, const ReplanChainOptions& options = {});

/// Multi-line human-readable rendering (one line per violation).
std::string replan_report_to_string(const ReplanChainReport& report);

}  // namespace evvo::check
