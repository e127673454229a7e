// The served systems and the seeded workload generators.
//
// Each workload is a pure function of (seed, sizes): the drivers receive
// only the generated inputs. Why each workload exists is recorded next to
// its generator and in kWorkloads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cloud/plan_service.hpp"
#include "core/planner.hpp"
#include "traffic/queue_predictor.hpp"
#include "traffic/traffic_predictor.hpp"
#include "traffic/volume_series.hpp"

namespace fleetbench {

enum class Workload { kFleetHits, kMissStorm, kVehicleReplan };

struct WorkloadInfo {
  Workload id;
  const char* name;
  const char* why;
};

/// The three workloads, with the reason each was chosen.
const std::vector<WorkloadInfo>& workloads();

/// Input sizes. `tiny` is the smoke-test scale: every code path and metric,
/// a fraction of a second of work.
struct Sizes {
  unsigned setup_repeats = 3;
  // fleet_hits
  std::size_t ticks_per_client = 256;
  std::size_t tick_requests = 64;
  // miss_storm
  double hit_ticks_per_s = 1000.0;  ///< Poisson gateway ticks of hit traffic
  std::size_t hit_tick_requests = 8;
  double storm_period_s = 2.0;
  double first_storm_s = 0.5;
  std::size_t storm_size = 16;
  // vehicle_replan
  std::size_t vehicles = 16;
  std::size_t checkpoints = 7;
  std::size_t updates_per_checkpoint = 3;
  std::uint64_t min_timed_requests = 1000;  ///< untraced vehicle_replan window

  static Sizes tiny();
};

// --- fleet_hits and miss_storm: the cloud service -----------------------------

/// The serving corridor of tools/evvo_load: a 3 km arterial with three
/// coordinated 60 s lights, planned with the paper's queue-aware policy.
evvo::core::VelocityPlanner make_arterial_planner();
std::shared_ptr<const evvo::traffic::ArrivalRateProvider> arterial_demand();
evvo::cloud::CacheConfig fleet_cache_config();

/// One reusable request identity of the hit traffic: a departure phase
/// (full-trip plan) or a quantizer-exact mid-route state (replan).
struct HitSlot {
  bool replan = false;
  double phase_s = 0.0;
  double position_m = 0.0;
  double speed_ms = 0.0;
};
std::vector<HitSlot> plan_slots();
std::vector<HitSlot> replan_slots();

/// One cloud request; replan states are quantizer-exact, so the canonical
/// state the service solves is the request's own.
struct CloudRequest {
  bool replan = false;
  int vehicle = 0;
  double time_s = 0.0;  ///< seconds into the simulated service day
  double position_m = 0.0;
  double speed_ms = 0.0;
};

/// The set-up requests that put every hit slot in the cache (epoch 0).
std::vector<CloudRequest> warmup_requests();

struct FleetHitsInput {
  /// Per client thread: ticks of requests, each tick one batch call pair.
  std::vector<std::vector<std::vector<CloudRequest>>> streams;
};
FleetHitsInput make_fleet_hits_input(std::uint64_t seed, unsigned clients, const Sizes& sizes);

struct ScheduledRequest {
  double due_s = 0.0;  ///< offset from the start of the timed window
  int storm = -1;      ///< storm index, -1 for hit traffic
  CloudRequest request;
};
struct MissStormInput {
  std::vector<ScheduledRequest> schedule;  ///< sorted by due_s
  std::vector<double> storm_due_s;
};
MissStormInput make_miss_storm_input(std::uint64_t seed, double seconds, const Sizes& sizes);

// --- vehicle_replan: the on-board planner ------------------------------------

evvo::core::VelocityPlanner make_us25_planner();

/// The on-board system: the US-25 planner plus the SAE demand forecaster
/// trained on the corridor's detector history.
struct VehicleSystem {
  evvo::core::VelocityPlanner planner;
  evvo::traffic::SaeVolumePredictor sae;
  evvo::traffic::HourlyVolumeSeries history;  ///< training weeks
  evvo::traffic::HourlyVolumeSeries actual;   ///< the served week's detector counts
  std::vector<double> forecast;               ///< lane-level veh/h per hour of the served week
  double fit_s = 0.0;
};
/// Trains the forecaster and builds the planner (the vehicle set-up).
std::unique_ptr<VehicleSystem> build_vehicle_system();

/// Demand provider for the served week: `forecast` (lane-level veh/h), hour
/// 0 at t = 0.
std::shared_ptr<const evvo::traffic::ArrivalRateProvider> forecast_rate(
    const std::vector<double>& forecast);

/// Lane share of the detector's multi-lane counts.
inline constexpr double kLaneEquivalents = 2.0;

struct Checkpoint {
  double fraction = 0.0;  ///< of the corridor length
  double dpos_m = 0.0;    ///< perturbation of the planned state
  double dspeed_ms = 0.0;
  double dtime_s = 0.0;
  /// One entry per demand-prediction update: multiplicative noise on the
  /// recent detector counts the forecaster re-reads.
  std::vector<std::vector<double>> updates;
};
struct VehicleTrip {
  int id = 0;
  double depart_s = 0.0;
  std::vector<Checkpoint> checkpoints;
};
struct VehicleReplanInput {
  std::vector<VehicleTrip> vehicles;
};
VehicleReplanInput make_vehicle_replan_input(std::uint64_t seed, std::size_t window_hours,
                                             const Sizes& sizes);

}  // namespace fleetbench
