// Timed drivers: each runs one workload's generated inputs against the
// served system for a fixed window and records what the caller saw.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "cloud/plan_service.hpp"
#include "core/planner.hpp"
#include "workloads.hpp"

namespace fleetbench {

/// A served cloud plan kept for the oracle check.
struct CloudSample {
  CloudRequest request;
  evvo::cloud::PlanTicket ticket;
  std::vector<evvo::core::PlanNode> served;  ///< the materialized nodes the caller received
};

/// A served on-board plan kept for the oracle check.
struct VehicleSample {
  bool full_plan = false;
  bool warm = false;  ///< re-solve of the previous request's state after a demand update
  double position_m = 0.0;
  double speed_ms = 0.0;
  double time_s = 0.0;
  std::shared_ptr<const evvo::traffic::ArrivalRateProvider> rate;
  std::vector<evvo::core::PlanNode> served;
};

/// Time spent inside the library's own spans, read from the registry
/// histograms around a call. Exact for a single calling thread.
struct ProgramTime {
  const evvo::telemetry::Histogram* batch_solve = nullptr;  ///< this service's, or null
  const evvo::telemetry::Histogram& dp_cold;
  const evvo::telemetry::Histogram& dp_warm;

  explicit ProgramTime(const evvo::telemetry::Histogram* service_batch_solve);
  struct Mark {
    std::uint64_t batch = 0;
    std::uint64_t dp = 0;
  };
  Mark mark() const;
  /// ns a cloud call spent in the batch solve (which contains its DP runs)
  /// or, on the single-leader path, in DP solves.
  double cloud_covered_ns(const Mark& before) const;
  /// ns a planner call spent in DP engine runs.
  double dp_ns(const Mark& before) const;
};

/// Per-layer probes the traced run makes outside every request:
/// build_events and zero_queue_windows at the request's time.
void probe_layers(ThreadTrace& trace, const evvo::core::VelocityPlanner& planner,
                  const std::shared_ptr<const evvo::traffic::ArrivalRateProvider>& rate,
                  double time_s, std::uint64_t request);

struct RunResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t served = 0;
  std::uint64_t thrown = 0;      ///< requests whose call threw (any exception)
  std::uint64_t overloaded = 0;  ///< subset of thrown: ServiceOverload
  std::uint64_t unexpected_outcomes = 0;  ///< hit/miss flag contradicting the workload
  LatencyHist latency;

  /// Plan quality over the deterministic first pass of the inputs.
  double energy_sum_mah = 0.0;
  double trip_sum_s = 0.0;
  std::uint64_t quality_n = 0;

  double materialized_bytes = 0.0;  ///< computed: nodes x sizeof(PlanNode)

  std::vector<CloudSample> cloud_samples;
  std::vector<VehicleSample> vehicle_samples;

  // Open-loop honesty (miss_storm).
  LatencyHist lag;
  std::vector<double> storm_drain_ms;
  bool backlog_grew = false;

  std::vector<std::unique_ptr<ThreadTrace>> traces;  ///< traced run only
};

/// Closed loop, one client thread per stream, for `seconds`.
RunResult run_fleet_hits(evvo::cloud::PlanService& service, const FleetHitsInput& input,
                         double seconds, bool traced, const evvo::core::VelocityPlanner& probe,
                         std::uint64_t sample_seed,
                         const evvo::telemetry::Histogram* batch_solve);

/// Open loop from one dispatcher thread over `schedule` (due times relative
/// to the window start).
RunResult run_miss_storm(evvo::cloud::PlanService& service,
                         const std::vector<ScheduledRequest>& schedule,
                         const std::vector<double>& storm_due_s, bool traced,
                         const evvo::core::VelocityPlanner& probe, std::uint64_t sample_seed,
                         const evvo::telemetry::Histogram* batch_solve);

/// Closed loop, one on-board caller, cycling through the vehicles for
/// `seconds`, extended by up to half of that until `min_requests` requests
/// are timed.
RunResult run_vehicle_replan(VehicleSystem& system, const VehicleReplanInput& input,
                             double seconds, std::uint64_t min_requests, bool traced,
                             std::uint64_t sample_seed);

}  // namespace fleetbench
