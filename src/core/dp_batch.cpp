#include "core/dp_batch.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/telemetry.hpp"
#include "core/dp_common.hpp"
#include "core/workspace_pool.hpp"

namespace evvo::core {

std::size_t dp_batch_lanes() { return 1; }

std::vector<std::optional<DpSolution>> solve_dp_batch(std::span<const DpProblem> problems,
                                                      WorkspacePool& pool,
                                                      common::ThreadPool* thread_pool,
                                                      DpBatchStats* stats) {
  std::vector<std::optional<DpSolution>> out(problems.size());
  DpBatchStats local;
  if (problems.empty()) {
    if (stats != nullptr) *stats = local;
    return out;
  }
  for (const DpProblem& problem : problems) problem.validate();

  // Group by route content, first-occurrence order (few routes per batch,
  // so a linear scan beats hashing): a group solves on one workspace, whose
  // cached model tables then carry over from problem to problem.
  std::vector<std::uint64_t> route_of(problems.size());
  std::vector<std::uint64_t> routes;
  for (std::size_t idx = 0; idx < problems.size(); ++idx) {
    route_of[idx] = detail::hash_route(*problems[idx].route);
    if (std::find(routes.begin(), routes.end(), route_of[idx]) == routes.end())
      routes.push_back(route_of[idx]);
  }

  static telemetry::Counter& groups_ctr = telemetry::counter("dp.batch.groups");
  static telemetry::Histogram& group_size_hist =
      telemetry::histogram("dp.batch.group_size", telemetry::Unit::kCount);
  groups_ctr.add(static_cast<long>(routes.size()));
  local.groups = routes.size();

  std::vector<std::unique_ptr<WorkspacePool::Entry>> entries =
      pool.acquire_many(routes.front(), routes.size());
  const auto release_all = [&] {
    for (std::size_t g = 0; g < routes.size(); ++g) {
      if (entries[g] == nullptr) continue;
      entries[g]->affinity = routes[g];
      pool.release(std::move(entries[g]));
    }
  };

  try {
    for (std::size_t g = 0; g < routes.size(); ++g) {
      long members = 0;
      for (std::size_t idx = 0; idx < problems.size(); ++idx) {
        if (route_of[idx] != routes[g]) continue;
        out[idx] = solve_dp(problems[idx], entries[g]->workspace, thread_pool);
        ++members;
      }
      group_size_hist.record(members);
    }
  } catch (...) {
    release_all();
    throw;
  }
  release_all();

  local.solves = problems.size();
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace evvo::core
