#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "bench.hpp"
#include "common/random.hpp"
#include "data/synthetic_volume.hpp"
#include "ev/energy_model.hpp"
#include "road/corridor.hpp"

namespace fleetbench {

using namespace evvo;

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> kWorkloads = {
      {Workload::kFleetHits, "fleet_hits",
       "closed-loop Zipf hit serving on the warmed 3-light arterial: the cloud "
       "shard/cache/ticket path and materialize do the work, the DP does none"},
      {Workload::kMissStorm, "miss_storm",
       "open loop: Poisson gateway ticks of hits at 8000 req/s plus a burst of 16 new "
       "same-layer replan keys every 2 s, so batched cold DP sweeps and cache writes sit "
       "beside reads"},
      {Workload::kVehicleReplan, "vehicle_replan",
       "one on-board caller on US-25 under SAE demand: K=1 stripe-parallel cold replans and "
       "warm re-solves after demand updates, no batching or cache"},
  };
  return kWorkloads;
}

Sizes Sizes::tiny() {
  Sizes s;
  s.setup_repeats = 1;
  s.ticks_per_client = 16;
  s.tick_requests = 16;
  s.hit_ticks_per_s = 10.0;
  s.hit_tick_requests = 4;
  s.storm_period_s = 0.5;
  s.first_storm_s = 0.1;
  s.storm_size = 4;
  s.vehicles = 2;
  s.checkpoints = 2;
  s.updates_per_checkpoint = 1;
  s.min_timed_requests = 0;
  return s;
}

// --- The cloud service ---------------------------------------------------------

core::VelocityPlanner make_arterial_planner() {
  road::Corridor corridor{road::Route({{0.0, 1200.0, 14.0, 0.0, 0.0},
                                       {1200.0, 2100.0, 12.0, 0.0, 0.01},
                                       {2100.0, 3000.0, 14.0, 0.0, 0.0}}),
                          {road::TrafficLight(400.0, 27.0, 33.0),
                           road::TrafficLight(1400.0, 25.0, 35.0, 18.0),
                           road::TrafficLight(2400.0, 27.0, 33.0, 41.0)},
                          {}};
  core::PlannerConfig cfg;
  cfg.policy = core::SignalPolicy::kQueueAware;
  cfg.resolution.horizon_s = 420.0;
  return core::VelocityPlanner(std::move(corridor), ev::EnergyModel{}, cfg);
}

std::shared_ptr<const traffic::ArrivalRateProvider> arterial_demand() {
  return std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(500.0));
}

cloud::CacheConfig fleet_cache_config() {
  cloud::CacheConfig cache;
  cache.shards = 8;
  cache.batch_threads = 1;  // the callers are the concurrency; no inner pool
  return cache;
}

std::vector<HitSlot> plan_slots() {
  std::vector<HitSlot> slots;
  for (int p = 0; p < 12; ++p) slots.push_back(HitSlot{false, 2.0 + 5.0 * p, 0.0, 0.0});
  return slots;
}

std::vector<HitSlot> replan_slots() {
  std::vector<HitSlot> slots;
  int j = 0;
  for (double position : {500.0, 1000.0, 1500.0, 2000.0, 2500.0}) {
    for (double speed : {8.0, 10.0}) {
      slots.push_back(HitSlot{true, 1.0 + 6.0 * j, position, speed});
      ++j;
    }
  }
  return slots;
}

std::vector<CloudRequest> warmup_requests() {
  std::vector<CloudRequest> out;
  int id = -1;
  for (const HitSlot& s : plan_slots()) out.push_back({false, id--, s.phase_s, 0.0, 0.0});
  for (const HitSlot& s : replan_slots())
    out.push_back({true, id--, s.phase_s, s.position_m, s.speed_ms});
  return out;
}

namespace {

/// Zipf CDF over ranks 0..n-1 with exponent s.
std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

std::size_t sample_cdf(const std::vector<double>& cdf, Rng& rng) {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
}

/// Hit traffic over the warmed slots: 30 % replans, Zipf(1.1) over each
/// class's slots, the request time inside the slot's 1 s phase bin at the
/// hyperperiod epoch of `clock_s`. Every draw is a cache hit.
struct HitGenerator {
  std::vector<HitSlot> plans = plan_slots();
  std::vector<HitSlot> replans = replan_slots();
  std::vector<double> plan_cdf = zipf_cdf(plans.size(), 1.1);
  std::vector<double> replan_cdf = zipf_cdf(replans.size(), 1.1);

  CloudRequest draw(Rng& rng, double clock_s, int vehicle) const {
    const bool replan = rng.bernoulli(0.3);
    const HitSlot& slot =
        replan ? replans[sample_cdf(replan_cdf, rng)] : plans[sample_cdf(plan_cdf, rng)];
    const double time = 60.0 * std::floor(clock_s / 60.0) + slot.phase_s + rng.uniform(-0.4, 0.4);
    return CloudRequest{slot.replan, vehicle, time, slot.position_m, slot.speed_ms};
  }
};

}  // namespace

// Why fleet_hits: the fleet's steady state is cache hits. Each client thread
// has its own seeded stream so the traffic's bytes do not depend on thread
// interleaving; all keys were warmed in set-up, so the timed window runs no
// solve and measures the cloud shard/cache/ticket path plus materialize.
FleetHitsInput make_fleet_hits_input(std::uint64_t seed, unsigned clients, const Sizes& sizes) {
  const HitGenerator gen;
  FleetHitsInput input;
  for (unsigned c = 0; c < clients; ++c) {
    Rng rng(seed * 1000003ull + c);
    double clock = 120.0;
    int vehicle = 0;
    std::vector<std::vector<CloudRequest>> ticks(sizes.ticks_per_client);
    for (auto& tick : ticks) {
      for (std::size_t i = 0; i < sizes.tick_requests; ++i) {
        clock += rng.exponential(20.0);  // Poisson fleet arrivals, mean gap 50 ms
        tick.push_back(gen.draw(rng, clock, vehicle++));
      }
    }
    input.streams.push_back(std::move(ticks));
  }
  return input;
}

// Why miss_storm: a demand or timing update makes the whole fleet replan at
// once. Each storm is `storm_size` never-seen replan keys on one shared grid
// layer (1230 m, inside the 12 m/s segment) - SoA-compatible, so serve_batch
// hands them to plan_batch -> solve_dp_batch - arriving in one instant on a
// fixed period, over steady hit traffic: Poisson ticks from fleet gateways,
// each forwarding `hit_tick_requests` vehicles' requests. Keys are drawn without
// replacement from the layer's 60 phase bins x 23 velocity levels.
MissStormInput make_miss_storm_input(std::uint64_t seed, double seconds, const Sizes& sizes) {
  constexpr double kStormPositionM = 1230.0;
  constexpr std::size_t kPhases = 60;
  constexpr std::size_t kVlevels = 23;  // 0.5 .. 11.5 m/s on the 0.5 m/s grid
  constexpr double kClockStartS = 600.0;

  Rng rng(seed * 7919ull + 17);
  const HitGenerator gen;
  MissStormInput input;
  int vehicle = 0;
  for (double due = rng.exponential(sizes.hit_ticks_per_s); due < seconds;
       due += rng.exponential(sizes.hit_ticks_per_s)) {
    for (std::size_t k = 0; k < sizes.hit_tick_requests; ++k) {
      input.schedule.push_back(
          ScheduledRequest{due, -1, gen.draw(rng, kClockStartS + due, vehicle++)});
    }
  }

  std::vector<std::size_t> combos(kPhases * kVlevels);
  std::iota(combos.begin(), combos.end(), std::size_t{0});
  for (std::size_t i = combos.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i)));
    std::swap(combos[i], combos[j]);
  }
  std::size_t next_combo = 0;
  for (double due = sizes.first_storm_s; due < seconds; due += sizes.storm_period_s) {
    if (next_combo + sizes.storm_size > combos.size()) break;  // key space exhausted
    const int storm = static_cast<int>(input.storm_due_s.size());
    input.storm_due_s.push_back(due);
    const double epoch = 60.0 * std::floor((kClockStartS + due) / 60.0);
    for (std::size_t k = 0; k < sizes.storm_size; ++k) {
      const std::size_t combo = combos[next_combo++];
      const auto phase = static_cast<double>(combo % kPhases);
      const double speed = 0.5 + 0.5 * static_cast<double>(combo / kPhases);
      input.schedule.push_back(ScheduledRequest{
          due, storm, CloudRequest{true, vehicle++, epoch + phase + 0.5, kStormPositionM, speed}});
    }
  }
  std::stable_sort(input.schedule.begin(), input.schedule.end(),
                   [](const ScheduledRequest& a, const ScheduledRequest& b) {
                     return a.due_s < b.due_s;
                   });
  return input;
}

// --- The on-board planner --------------------------------------------------------

core::VelocityPlanner make_us25_planner() {
  core::PlannerConfig cfg;
  cfg.policy = core::SignalPolicy::kQueueAware;
  return core::VelocityPlanner(road::make_us25_corridor(), ev::EnergyModel{}, cfg);
}

std::shared_ptr<const traffic::ArrivalRateProvider> forecast_rate(
    const std::vector<double>& forecast) {
  return std::make_shared<traffic::SeriesArrivalRate>(traffic::HourlyVolumeSeries(forecast),
                                                      Seconds(0.0));
}

std::unique_ptr<VehicleSystem> build_vehicle_system() {
  // Four training weeks and a short schedule keep set-up well under a second; the
  // forecaster is the paper's SAE on the paper's features.
  const data::VolumeDataset ds = data::make_us25_dataset({}, 4, 1);
  traffic::PredictorConfig cfg;
  cfg.sae.pretrain_epochs = 10;
  cfg.sae.finetune_epochs = 60;
  auto system = std::unique_ptr<VehicleSystem>(new VehicleSystem{
      make_us25_planner(), traffic::SaeVolumePredictor(cfg), ds.train, ds.test, {}, 0.0});
  const std::uint64_t fit_start = now_ns();
  system->sae.fit(system->history);
  system->fit_s = static_cast<double>(now_ns() - fit_start) * 1e-9;
  system->forecast = traffic::predict_series(system->sae, system->history, system->actual);
  for (double& v : system->forecast) v /= kLaneEquivalents;
  return system;
}

// Why vehicle_replan: the on-board planner is the same DP used the other way
// - one caller, K = 1, stripe-parallel, warm-started, no batching and no
// cache. Each vehicle plans at departure, replans cold from a perturbed
// state of its own plan at fixed fractions of the route, and re-solves that
// state after each demand-prediction update (the warm path). Departures are
// spread over the served Monday's 06:00-20:00 demand.
VehicleReplanInput make_vehicle_replan_input(std::uint64_t seed, std::size_t window_hours,
                                             const Sizes& sizes) {
  Rng rng(seed * 104729ull + 3);
  VehicleReplanInput input;
  for (std::size_t v = 0; v < sizes.vehicles; ++v) {
    VehicleTrip trip;
    trip.id = static_cast<int>(v);
    // Stratified over the day: one departure per equal slice of 06:00-20:00.
    const double slice_s = 14.0 * 3600.0 / static_cast<double>(sizes.vehicles);
    trip.depart_s = 6.0 * 3600.0 + slice_s * (static_cast<double>(v) + rng.uniform());
    for (std::size_t c = 0; c < sizes.checkpoints; ++c) {
      Checkpoint cp;
      cp.fraction = static_cast<double>(c + 1) / static_cast<double>(sizes.checkpoints + 1);
      cp.dpos_m = rng.uniform(-4.0, 4.0);
      cp.dspeed_ms = std::clamp(rng.normal(0.0, 0.4), -1.0, 1.0);
      cp.dtime_s = rng.uniform(0.0, 1.5);
      for (std::size_t u = 0; u < sizes.updates_per_checkpoint; ++u) {
        std::vector<double> noise(window_hours);
        for (double& n : noise) n = std::clamp(1.0 + rng.normal(0.0, 0.05), 0.8, 1.2);
        cp.updates.push_back(std::move(noise));
      }
      trip.checkpoints.push_back(std::move(cp));
    }
    input.vehicles.push_back(std::move(trip));
  }
  return input;
}

}  // namespace fleetbench
