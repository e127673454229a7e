// VelocityPlanner facade: event construction per policy, window semantics,
// and planned crossing times.
#include "core/planner.hpp"

#include <gtest/gtest.h>

#include <exception>
#include <limits>
#include <memory>
#include <vector>

#include "ev/energy_model.hpp"
#include "road/corridor.hpp"

namespace evvo::core {
namespace {

std::shared_ptr<traffic::ConstantArrivalRate> demand(double veh_h) {
  return std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(veh_h));
}

PlannerConfig config_for(SignalPolicy policy) {
  PlannerConfig cfg;
  cfg.policy = policy;
  return cfg;
}

TEST(Planner, PolicyNames) {
  EXPECT_STREQ(signal_policy_name(SignalPolicy::kQueueAware), "queue-aware (proposed)");
  EXPECT_STREQ(signal_policy_name(SignalPolicy::kGreenWindow), "green-window (current DP)");
  EXPECT_STREQ(signal_policy_name(SignalPolicy::kIgnoreSignals), "signal-oblivious");
}

TEST(Planner, BuildEventsSnapsElementsToLayers) {
  const VelocityPlanner planner(road::make_us25_corridor(), ev::EnergyModel{},
                                config_for(SignalPolicy::kGreenWindow));
  const auto events = planner.build_events(Seconds(0.0), nullptr);
  ASSERT_EQ(events.size(), 3u);  // 1 sign + 2 lights
  EXPECT_EQ(events[0].type, LayerEvent::Type::kStopSign);
  EXPECT_EQ(events[0].layer, 49u);   // 490 m / 10 m
  EXPECT_EQ(events[1].layer, 182u);  // 1820 m
  EXPECT_EQ(events[2].layer, 346u);  // 3460 m
}

TEST(Planner, QueueAwareRequiresArrivals) {
  const VelocityPlanner planner(road::make_us25_corridor(), ev::EnergyModel{},
                                config_for(SignalPolicy::kQueueAware));
  EXPECT_THROW(planner.build_events(Seconds(0.0), nullptr), std::invalid_argument);
}

TEST(Planner, QueueAwareWindowsAreSubsetsOfGreenWindows) {
  const road::Corridor corridor = road::make_us25_corridor();
  const VelocityPlanner ours(corridor, ev::EnergyModel{}, config_for(SignalPolicy::kQueueAware));
  const VelocityPlanner base(corridor, ev::EnergyModel{}, config_for(SignalPolicy::kGreenWindow));
  const auto ours_events = ours.build_events(Seconds(0.0), demand(765.0));
  const auto base_events = base.build_events(Seconds(0.0), demand(765.0));
  for (std::size_t e = 1; e < ours_events.size(); ++e) {  // signal events
    ASSERT_FALSE(ours_events[e].windows.empty());
    for (const auto& w : ours_events[e].windows) {
      bool inside_green = false;
      for (const auto& g : base_events[e].windows) {
        inside_green |= g.start_s <= w.start_s && w.end_s <= g.end_s;
      }
      EXPECT_TRUE(inside_green);
    }
    // And strictly later-opening than the green phase (queue discharge).
    EXPECT_GT(ours_events[e].windows[0].start_s, base_events[e].windows[0].start_s);
  }
}

TEST(Planner, IgnoreSignalsDisablesWindowChecks) {
  const VelocityPlanner planner(road::make_us25_corridor(), ev::EnergyModel{},
                                config_for(SignalPolicy::kIgnoreSignals));
  for (const auto& e : planner.build_events(Seconds(0.0), nullptr)) {
    if (e.type == LayerEvent::Type::kSignal) {
      EXPECT_FALSE(e.enforce_windows);
    }
  }
}

TEST(Planner, MarginsTrimQueueAwareWindowsOnly) {
  PlannerConfig with_margin = config_for(SignalPolicy::kQueueAware);
  with_margin.window_start_margin_s = 4.0;
  with_margin.window_end_margin_s = 3.0;
  PlannerConfig no_margin = with_margin;
  no_margin.window_start_margin_s = 0.0;
  no_margin.window_end_margin_s = 0.0;
  const road::Corridor corridor = road::make_us25_corridor();
  const auto arrivals = demand(765.0);
  const auto a = VelocityPlanner(corridor, ev::EnergyModel{}, with_margin).build_events(Seconds(0.0), arrivals);
  const auto b = VelocityPlanner(corridor, ev::EnergyModel{}, no_margin).build_events(Seconds(0.0), arrivals);
  EXPECT_NEAR(a[1].windows[0].start_s - b[1].windows[0].start_s, 4.0, 1e-9);
  EXPECT_NEAR(b[1].windows[0].end_s - a[1].windows[0].end_s, 3.0, 1e-9);

  // The green-window baseline keeps the raw phases (the paper's baseline
  // assumption): margins do not apply.
  PlannerConfig base_cfg = config_for(SignalPolicy::kGreenWindow);
  base_cfg.window_start_margin_s = 4.0;
  const auto c = VelocityPlanner(corridor, ev::EnergyModel{}, base_cfg).build_events(Seconds(0.0), nullptr);
  const auto& light = corridor.lights[0];
  EXPECT_DOUBLE_EQ(c[1].windows[0].start_s, light.green_windows(0.0, 500.0)[0].start_s);
}

TEST(Planner, RejectsElementsSharingALayer) {
  road::Corridor corridor = road::make_single_light_corridor(1000.0, 600.0);
  corridor.stop_signs.push_back(road::StopSign{602.0});  // same 10 m layer as the light
  const VelocityPlanner planner(corridor, ev::EnergyModel{}, config_for(SignalPolicy::kGreenWindow));
  EXPECT_THROW(planner.build_events(Seconds(0.0), nullptr), std::invalid_argument);
}

TEST(Planner, RejectsElementAtBoundary) {
  road::Corridor corridor = road::make_single_light_corridor(1000.0, 600.0);
  corridor.stop_signs.push_back(road::StopSign{2.0});  // snaps to layer 0
  const VelocityPlanner planner(corridor, ev::EnergyModel{}, config_for(SignalPolicy::kGreenWindow));
  EXPECT_THROW(planner.build_events(Seconds(0.0), nullptr), std::invalid_argument);
}

TEST(Planner, PlanCrossesLightsInsideTargetWindows) {
  const road::Corridor corridor = road::make_us25_corridor();
  PlannerConfig cfg = config_for(SignalPolicy::kQueueAware);
  const VelocityPlanner planner(corridor, ev::EnergyModel{}, cfg);
  const auto arrivals = demand(765.0);
  const PlannedProfile plan = planner.plan(Seconds(0.0), arrivals);
  const auto events = planner.build_events(Seconds(0.0), arrivals);
  for (const auto& e : events) {
    if (e.type != LayerEvent::Type::kSignal) continue;
    const double crossing = plan.departure_time_at(static_cast<double>(e.layer) * 10.0);
    EXPECT_TRUE(in_any_window(e.windows, crossing)) << "crossing at " << crossing;
  }
}

TEST(Planner, PlanWithStatsExposesGridDiagnostics) {
  const VelocityPlanner planner(road::make_us25_corridor(), ev::EnergyModel{},
                                config_for(SignalPolicy::kIgnoreSignals));
  const DpSolution solution = planner.plan_with_stats(Seconds(0.0));
  EXPECT_EQ(solution.stats.layers, 421u);
  EXPECT_GT(solution.stats.relaxations, 10000u);
  EXPECT_GT(solution.profile.total_energy_mah(), 0.0);
}

TEST(Planner, DepartureTimeShiftsPlanTimes) {
  const VelocityPlanner planner(road::make_us25_corridor(), ev::EnergyModel{},
                                config_for(SignalPolicy::kIgnoreSignals));
  const PlannedProfile later = planner.plan(Seconds(500.0));
  EXPECT_DOUBLE_EQ(later.depart_time(), 500.0);
  EXPECT_GT(later.arrival_time(), 500.0);
}

TEST(Planner, RejectsNonFiniteClockAndState) {
  // Used to hang the solver's horizon search (NaN, +inf) or cast garbage into
  // time bins; every public entry point now throws instead.
  const VelocityPlanner planner(road::make_us25_corridor(), ev::EnergyModel{},
                                config_for(SignalPolicy::kQueueAware));
  const auto arrivals = demand(765.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double t : {nan, inf, -inf}) {
    EXPECT_THROW((void)planner.plan(Seconds(t), arrivals), std::invalid_argument) << t;
    EXPECT_THROW((void)planner.replan(Meters(100.0), MetersPerSecond(5.0), Seconds(t), arrivals),
                 std::invalid_argument)
        << t;
    EXPECT_THROW((void)planner.replan(Meters(t), MetersPerSecond(5.0), Seconds(0.0), arrivals),
                 std::invalid_argument)
        << t;
    EXPECT_THROW((void)planner.replan(Meters(100.0), MetersPerSecond(t), Seconds(0.0), arrivals),
                 std::invalid_argument)
        << t;
  }
  // Finite but beyond the float clock's resolution: unchecked, 1e17 rounds
  // below itself in the sweep and indexes before time bin 0.
  for (const double t : {1e17, -1e17, 1e300}) {
    EXPECT_THROW((void)planner.plan(Seconds(t), arrivals), std::invalid_argument) << t;
    EXPECT_THROW((void)planner.replan(Meters(100.0), MetersPerSecond(5.0), Seconds(t), arrivals),
                 std::invalid_argument)
        << t;
    EXPECT_THROW((void)planner.replan(Meters(t), MetersPerSecond(5.0), Seconds(0.0), arrivals),
                 std::invalid_argument)
        << t;
  }
}

TEST(Planner, BoundPruningKeepsTheExhaustivePlan) {
  PlannerConfig cfg = config_for(SignalPolicy::kQueueAware);
  const VelocityPlanner pruned(road::make_us25_corridor(), ev::EnergyModel{}, cfg);
  cfg.bound_pruning = false;
  const VelocityPlanner exhaustive(road::make_us25_corridor(), ev::EnergyModel{}, cfg);
  const auto arrivals = demand(765.0);
  const DpSolution a = pruned.plan_with_stats(Seconds(30.0), arrivals);
  const DpSolution b = exhaustive.plan_with_stats(Seconds(30.0), arrivals);
  EXPECT_EQ(a.stats.best_cost_mah, b.stats.best_cost_mah);
  ASSERT_EQ(a.profile.nodes().size(), b.profile.nodes().size());
  for (std::size_t i = 0; i < a.profile.nodes().size(); ++i) {
    EXPECT_EQ(a.profile.nodes()[i].time_s, b.profile.nodes()[i].time_s) << i;
    EXPECT_EQ(a.profile.nodes()[i].speed_ms, b.profile.nodes()[i].speed_ms) << i;
  }
  EXPECT_LT(a.stats.relaxations, b.stats.relaxations);
  EXPECT_GT(a.stats.bound_pruned_states, 0u);
  EXPECT_EQ(b.stats.bound_attempts, 0u);
}

}  // namespace
}  // namespace evvo::core
