// Differential oracle for the batch entry point (core/dp_batch.hpp).
//
// One check generates a scenario from its seed and fans it into a batch of
// lane variants (departure jitter, shifted signal windows, different
// boundary speeds), optionally interleaved with a second scenario's batch so
// the per-route grouping is exercised. The whole set is solved once through
// solve_dp_batch() and once more problem-by-problem through the standalone
// solve_dp(); every problem must agree bit-for-bit: feasibility, full
// state-table checksum, optimal cost, work counters (relaxations, frontier,
// pruned), and every profile byte. The dispatch accounting is also checked:
// every problem must be accounted for, and the group count must match the
// distinct routes submitted. Bound pruning is off on both sides so the
// table-level comparison stays meaningful.
//
// `evvo_fuzz --batch` drives many checks; the tamper option corrupts one
// batched result so the harness can prove the oracle fires.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/invariants.hpp"

namespace evvo::check {

struct BatchIdentityOptions {
  /// Corrupt one batched profile node before comparison; the check must then
  /// report a violation (oracle self-test, wired to `evvo_fuzz --inject`).
  bool tamper = false;
};

struct [[nodiscard]] BatchIdentityReport {
  std::uint64_t seed = 0;
  std::size_t lanes = 0;             ///< scenarios submitted to the batch
  std::size_t groups = 0;            ///< distinct routes (one workspace each)
  std::size_t infeasible_lanes = 0;  ///< lanes both sides found infeasible
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
};

/// Solves one seeded batch both ways and compares. Deterministic in
/// (seed, options).
BatchIdentityReport check_batch_identity(std::uint64_t seed,
                                         const BatchIdentityOptions& options = {});

/// Multi-line human-readable rendering (one line per violation).
std::string batch_report_to_string(const BatchIdentityReport& report);

}  // namespace evvo::check
