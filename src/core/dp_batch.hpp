// Batch entry point over the DP solver (core/dp_solver.hpp).
//
// A PlanService miss storm hands the planner many independent solver runs at
// once. solve_dp_batch() solves them one after another with the single DP
// engine, each on a pooled workspace shared by the problems over the same
// route, so the cached model tables are built once per route and call. Each
// result is bit-identical to a standalone solve_dp() of the same problem.
//
// Problems are deliberately not swept lane-interleaved: bound pruning is per
// problem (its own incumbent, bound and certification), and a shared sweep
// would have to keep every row live that any problem needs. One pruned sweep
// per problem measured faster on every workload (DESIGN.md section 15).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/dp_solver.hpp"

namespace evvo::common {
class ThreadPool;
}

namespace evvo::core {

class WorkspacePool;

/// Problems per engine sweep: always 1 (see the header comment). Kept for
/// run descriptors that report it.
std::size_t dp_batch_lanes();

/// Dispatch accounting for one solve_dp_batch() call.
struct [[nodiscard]] DpBatchStats {
  std::size_t groups = 0;  ///< distinct routes seen (one workspace each)
  std::size_t solves = 0;  ///< problems solved
};

/// Solves every problem. Results are returned in input order; std::nullopt
/// marks an infeasible problem, exactly as solve_dp would have reported it.
/// Workspaces are checked out of `pool` (one per distinct route, a single
/// pool-lock acquisition for the whole batch) and returned before this
/// function exits, including on throw. `thread_pool` parallelizes the
/// per-layer relaxation stripes exactly as in solve_dp. Every problem is
/// validated before any is solved: an invalid one throws the same exception
/// solve_dp would.
[[nodiscard]] std::vector<std::optional<DpSolution>> solve_dp_batch(
    std::span<const DpProblem> problems, WorkspacePool& pool,
    common::ThreadPool* thread_pool = nullptr, DpBatchStats* stats = nullptr);

}  // namespace evvo::core
