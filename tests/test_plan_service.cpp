// Vehicular-cloud planning service: hyperperiod math, cache correctness
// (phase-congruent departures share a time-shifted plan), LRU eviction, and
// thread safety under concurrent requests.
#include "cloud/plan_service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "ev/energy_model.hpp"
#include "os_threads.hpp"
#include "road/corridor.hpp"
#include "sim/calibration.hpp"
#include "sim/microsim.hpp"

namespace evvo::cloud {
namespace {

std::shared_ptr<traffic::ConstantArrivalRate> demand(double veh_h) {
  return std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(veh_h));
}

core::VelocityPlanner make_planner() {
  sim::MicrosimConfig sim_config;
  core::PlannerConfig cfg;
  cfg.policy = core::SignalPolicy::kQueueAware;
  cfg.vm = sim::calibrated_vm_params(sim_config.background_driver, 13.4,
                                     sim_config.straight_ratio);
  return core::VelocityPlanner(road::make_us25_corridor(), ev::EnergyModel{}, cfg);
}

TEST(Hyperperiod, LcmOfCycles) {
  EXPECT_DOUBLE_EQ(signal_hyperperiod({}), 0.0);
  EXPECT_DOUBLE_EQ(signal_hyperperiod({road::TrafficLight(100.0, 30.0, 30.0)}), 60.0);
  EXPECT_DOUBLE_EQ(signal_hyperperiod({road::TrafficLight(100.0, 30.0, 30.0),
                                       road::TrafficLight(200.0, 45.0, 45.0)}),
                   180.0);
  // Fractional cycles resolved at decisecond precision.
  EXPECT_DOUBLE_EQ(signal_hyperperiod({road::TrafficLight(100.0, 10.0, 10.5)}), 20.5);
}

TEST(PlanService, ValidatesConfig) {
  CacheConfig bad;
  bad.capacity = 0;
  EXPECT_THROW(PlanService(make_planner(), demand(765.0), bad), std::invalid_argument);
  EXPECT_THROW(PlanService(make_planner(), nullptr, CacheConfig{}), std::invalid_argument);
}

TEST(PlanService, FirstRequestSolvesSecondHitsCache) {
  PlanService service(make_planner(), demand(765.0));
  EXPECT_DOUBLE_EQ(service.hyperperiod(), 60.0);

  const PlanResponse a = service.request_plan({1, 600.0});
  EXPECT_FALSE(a.cache_hit);
  // Same phase one hyperperiod later: a cache hit, time-shifted.
  const PlanResponse b = service.request_plan({2, 660.0});
  EXPECT_TRUE(b.cache_hit);
  EXPECT_DOUBLE_EQ(b.profile.depart_time(), 660.0);
  EXPECT_NEAR(b.profile.trip_time(), a.profile.trip_time(), 1e-9);
  EXPECT_NEAR(b.profile.total_energy_mah(), a.profile.total_energy_mah(), 1e-9);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.solver_runs, 1);
}

TEST(PlanService, ShiftedPlanCrossesSignalsAtCongruentTimes) {
  PlanService service(make_planner(), demand(765.0));
  const PlanResponse a = service.request_plan({1, 600.0});
  const PlanResponse b = service.request_plan({2, 600.0 + 3.0 * 60.0});
  ASSERT_TRUE(b.cache_hit);
  const road::Corridor corridor = road::make_us25_corridor();
  for (const auto& light : corridor.lights) {
    const double ca = a.profile.time_at_position(light.position());
    const double cb = b.profile.time_at_position(light.position());
    EXPECT_NEAR(cb - ca, 180.0, 1e-6);
    EXPECT_EQ(light.is_green(ca), light.is_green(cb));
  }
}

TEST(PlanService, DifferentPhaseMisses) {
  PlanService service(make_planner(), demand(765.0));
  (void)service.request_plan({1, 600.0});
  const PlanResponse other = service.request_plan({2, 617.0});  // different phase bin
  EXPECT_FALSE(other.cache_hit);
}

TEST(PlanService, LruEvictionBounded) {
  CacheConfig cache;
  cache.capacity = 2;
  PlanService service(make_planner(), demand(765.0), cache);
  (void)service.request_plan({1, 600.0});
  (void)service.request_plan({2, 610.0});
  (void)service.request_plan({3, 620.0});  // evicts the 600.0 entry
  const ServiceStats mid = service.stats();
  EXPECT_EQ(mid.evictions, 1);
  const PlanResponse again = service.request_plan({4, 600.0});
  EXPECT_FALSE(again.cache_hit);  // was evicted
  // 610.0 was refreshed least recently but within capacity bounds overall.
  EXPECT_LE(service.stats().solver_runs, 5);
}

TEST(PlanService, ReplanMissesThenServesPhaseCongruentStates) {
  PlanService service(make_planner(), demand(765.0));

  // Mid-route state on the 10 m grid: layer 200, velocity level 30.
  const PlanResponse a = service.request_replan({1, 2000.0, 15.0, 600.0});
  EXPECT_FALSE(a.cache_hit);
  EXPECT_DOUBLE_EQ(a.profile.nodes().front().position_m, 2000.0);
  EXPECT_DOUBLE_EQ(a.profile.nodes().front().speed_ms, 15.0);
  EXPECT_DOUBLE_EQ(a.profile.depart_time(), 600.0);

  // Same quantized state one hyperperiod later: served from the segment
  // memo, time-shifted to the new request time.
  const PlanResponse b = service.request_replan({2, 2000.0, 15.0, 660.0});
  EXPECT_TRUE(b.cache_hit);
  EXPECT_DOUBLE_EQ(b.profile.depart_time(), 660.0);
  EXPECT_NEAR(b.profile.trip_time(), a.profile.trip_time(), 1e-9);
  EXPECT_NEAR(b.profile.total_energy_mah(), a.profile.total_energy_mah(), 1e-9);

  // Off-grid states snap into the same bin and hit too.
  const PlanResponse c = service.request_replan({3, 2003.0, 15.2, 720.0});
  EXPECT_TRUE(c.cache_hit);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.replans, 3);
  EXPECT_EQ(stats.cache_hits, 2);
  EXPECT_EQ(stats.solver_runs, 1);
}

TEST(PlanService, ReplanKeysNeverCollideWithFullTripPlans) {
  PlanService service(make_planner(), demand(765.0));
  const PlanResponse trip = service.request_plan({1, 600.0});
  // A replan from the departure state at the same phase is a different kind
  // of request (full-trip keys use layer = -1) and must solve on its own.
  const PlanResponse replan = service.request_replan({2, 0.0, 0.0, 600.0});
  EXPECT_FALSE(trip.cache_hit);
  EXPECT_FALSE(replan.cache_hit);
  EXPECT_EQ(service.stats().solver_runs, 2);
  EXPECT_EQ(service.stats().replans, 1);
}

TEST(PlanService, ReplanValidatesPosition) {
  PlanService service(make_planner(), demand(765.0));
  EXPECT_THROW((void)service.request_replan({1, -1.0, 10.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)service.request_replan({1, 4200.0, 10.0, 0.0}), std::invalid_argument);
}

TEST(PlanService, RejectsNonFiniteRequests) {
  // A NaN departure used to hang the solver right after a normal request.
  PlanService service(make_planner(), demand(765.0));
  (void)service.request_plan({1, 0.0});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)service.request_plan({2, nan}), std::invalid_argument);
  EXPECT_THROW((void)service.request_plan({3, inf}), std::invalid_argument);
  EXPECT_THROW((void)service.request_plan({4, -inf}), std::invalid_argument);
  EXPECT_THROW((void)service.request_replan({5, nan, 10.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)service.request_replan({6, 100.0, inf, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)service.request_replan({7, 100.0, 10.0, nan}), std::invalid_argument);
  const std::vector<PlanRequest> batch{{8, 0.0}, {9, nan}};
  EXPECT_THROW((void)service.request_plans(batch), std::invalid_argument);
  // Finite clocks too large for the solver's float time base are refused
  // before the cache lookup, so a hit and a miss agree: 1e300 falls in phase
  // bin 0, cached above, and must not be served from it. Checked on the warm
  // service and on a cold one.
  const long requests_before = service.stats().requests;
  PlanService cold(make_planner(), demand(765.0));
  for (PlanService* s : {&service, &cold}) {
    for (const double t : {1e17, -1e17, 1e300}) {
      EXPECT_THROW((void)s->request_plan({10, t}), std::invalid_argument) << t;
      EXPECT_THROW((void)s->request_plan_ticket({10, t}), std::invalid_argument) << t;
      EXPECT_THROW((void)s->request_replan({11, 100.0, 10.0, t}), std::invalid_argument) << t;
      const std::vector<PlanRequest> huge{{12, 0.0}, {13, t}};
      EXPECT_THROW((void)s->request_plans(huge), std::invalid_argument) << t;
    }
  }
  EXPECT_EQ(service.stats().requests, requests_before);
}

TEST(PlanService, BatchServingStartsNoThread) {
  // Misses solve and responses materialize on the calling thread; the
  // ignored batch_threads setting starts no pool.
  CacheConfig cache;
  cache.batch_threads = 4;
  PlanService service(make_planner(), demand(765.0), cache);
  const std::optional<std::size_t> before = os_thread_count();
  if (!before) GTEST_SKIP() << "/proc/self/task is not available";
  const std::vector<PlanRequest> batch{{1, 600.0}, {2, 660.0}, {3, 611.0}, {4, 671.0}};
  EXPECT_EQ(service.request_plans(batch).size(), batch.size());
  EXPECT_EQ(service.stats().solver_runs, 2);
  EXPECT_EQ(os_thread_count(), before);
}

TEST(PlanService, BatchReplansCoalesceOntoOneSolve) {
  PlanService service(make_planner(), demand(765.0));
  std::vector<ReplanRequest> fleet;
  for (int i = 0; i < 6; ++i) {
    // Same quantized state, phase-congruent request times.
    fleet.push_back({i, 2000.0, 15.0, 600.0 + 60.0 * i});
  }
  const std::vector<PlanResponse> responses = service.request_replans(fleet);
  ASSERT_EQ(responses.size(), fleet.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].vehicle_id, static_cast<int>(i));
    EXPECT_DOUBLE_EQ(responses[i].profile.depart_time(), fleet[i].time_s);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 6);
  EXPECT_EQ(stats.replans, 6);
  EXPECT_EQ(stats.solver_runs, 1);
  EXPECT_EQ(stats.cache_hits, 5);
}

TEST(PlanService, TicketLatencyRecordsOneSamplePerGroup) {
  PlanService service(make_planner(), demand(765.0));
  (void)service.request_plan({0, 0.0});   // phase bin 0
  (void)service.request_plan({1, 20.0});  // phase bin 20
  const std::uint64_t per_call = telemetry::kEnabled ? 1 : 0;  // OFF builds time nothing
  EXPECT_EQ(service.ticket_latencies().count(), 2 * per_call);
  // Three groups: two hit groups (bins 0 and 20, the second with two
  // members) and one miss (bin 40). The miss's solve lands inside its
  // group's sample rather than adding a sample of its own.
  const std::vector<PlanRequest> batch{{2, 60.0}, {3, 80.0}, {4, 140.0}, {5, 40.0}};
  const std::vector<PlanTicket> tickets = service.request_plan_tickets(batch);
  ASSERT_EQ(tickets.size(), batch.size());
  EXPECT_FALSE(tickets[3].cache_hit);
  EXPECT_EQ(service.stats().solver_runs, 3);
  EXPECT_EQ(service.ticket_latencies().count(), (2 + 3) * per_call);
  EXPECT_EQ(service.batch_group_sizes().count(), 3u);
}

TEST(PlanService, ConcurrentRequestsAreConsistent) {
  PlanService service(make_planner(), demand(765.0));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 6;
  std::vector<std::thread> workers;
  std::vector<double> energies(kThreads * kPerThread, 0.0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service, &energies, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // All phase-congruent: one solve should serve (almost) everyone.
        const double depart = 600.0 + 60.0 * (t * kPerThread + i);
        const PlanResponse r = service.request_plan({t * 100 + i, depart});
        energies[static_cast<std::size_t>(t * kPerThread + i)] = r.profile.total_energy_mah();
      }
    });
  }
  for (auto& w : workers) w.join();
  // Cold-key races may produce a handful of independent solves at different
  // absolute departure times; those are equally *optimal* plans, but float
  // time binning can break cost ties differently, so physical energies agree
  // only to ~1 %, not bitwise.
  for (const double e : energies) EXPECT_NEAR(e, energies.front(), energies.front() * 0.012);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  // At most one duplicate solve per thread racing on the cold key.
  EXPECT_LE(stats.solver_runs, kThreads);
  EXPECT_GE(stats.cache_hits, kThreads * kPerThread - kThreads);
}

}  // namespace
}  // namespace evvo::cloud
