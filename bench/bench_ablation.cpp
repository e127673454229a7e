// Ablations over the design choices DESIGN.md calls out:
//   A1  queue-aware vs green-window planning across traffic demand
//       (the saving grows with congestion until the windows saturate away)
//   A2  penalty formulation: multiplicative M sweep, additive, hard
//   A3  time-value (lambda) sweep: the energy/time Pareto front
//   A4  DP grid resolution vs plan quality and cost
//   A5  regenerative braking on/off, paper vs physical convention
//   A6  window safety margins vs execution robustness
//   A15 DP bound pruning on/off: relaxations, wall time, equal optimum
#include <algorithm>
#include <vector>

#include "common/clock.hpp"
#include "core/glosa.hpp"
#include "ev/degradation.hpp"
#include "ev/efficiency_map.hpp"
#include "road/coordination.hpp"
#include "experiment_common.hpp"
#include "traffic/delay.hpp"

namespace evvo::bench {
namespace {

void a1_demand_sweep() {
  print_header("A1 - savings of queue-aware planning vs demand [total veh/h]");
  TextTable table({"demand", "ours [mAh]", "current DP [mAh]", "saving [%]", "ours hard-brake",
                   "base hard-brake"});
  CsvTable csv;
  csv.columns = {"demand_veh_h", "ours_mah", "base_mah", "saving_pct", "ours_brake", "base_brake"};
  for (const double demand : {400.0, 800.0, 1200.0, 1530.0, 1800.0, 2100.0}) {
    ExperimentWorld world;
    world.demand_veh_h = demand;
    const auto ours_exec = world.execute(world.plan(core::SignalPolicy::kQueueAware));
    const auto base_exec = world.execute(world.plan(core::SignalPolicy::kGreenWindow));
    if (!ours_exec.completed || !base_exec.completed) {
      table.add_row({format_double(demand, 0), "timeout", "timeout", "-", "-", "-"});
      continue;
    }
    const auto braking = [&world](const sim::ExecutionResult& r) {
      const auto accel = r.cycle.accelerations();
      double hardest = 0.0;
      for (std::size_t i = 0; i < r.positions.size(); ++i) {
        for (const auto& light : world.corridor.lights) {
          if (r.positions[i] > light.position() - 250.0 && r.positions[i] < light.position() + 10.0)
            hardest = std::min(hardest, accel[i]);
        }
      }
      return hardest;
    };
    const double e_ours = world.evaluate(ours_exec.cycle).energy.charge_mah;
    const double e_base = world.evaluate(base_exec.cycle).energy.charge_mah;
    table.add_row({format_double(demand, 0), format_double(e_ours, 1), format_double(e_base, 1),
                   format_double(core::percent_saving(e_base, e_ours), 1),
                   format_double(braking(ours_exec), 2), format_double(braking(base_exec), 2)});
    csv.add_row({demand, e_ours, e_base, core::percent_saving(e_base, e_ours), braking(ours_exec),
                 braking(base_exec)});
  }
  table.print(std::cout);
  save_csv("ablation_a1_demand.csv", csv);
}

void a2_penalty_sweep() {
  print_header("A2 - penalty formulation (plan-level)");
  const ExperimentWorld world;
  TextTable table({"penalty", "plan energy [mAh]", "trip [s]", "in-window crossings"});
  CsvTable csv;
  csv.columns = {"mode_id", "m", "energy_mah", "trip_s", "in_window"};
  const auto evaluate = [&](const std::string& name, double mode_id, core::PenaltyConfig penalty) {
    core::PlannerConfig cfg = world.planner_config(core::SignalPolicy::kQueueAware);
    cfg.penalty = penalty;
    const core::VelocityPlanner planner(world.corridor, world.energy, cfg);
    const auto arrivals = world.lane_demand();
    const core::PlannedProfile plan = planner.plan(Seconds(world.depart_s), arrivals);
    const auto events = planner.build_events(Seconds(world.depart_s), arrivals);
    int in_window = 0;
    int signals = 0;
    for (const auto& e : events) {
      if (e.type != core::LayerEvent::Type::kSignal) continue;
      ++signals;
      if (core::in_any_window(e.windows, plan.departure_time_at(static_cast<double>(e.layer) * 10.0)))
        ++in_window;
    }
    table.add_row({name, format_double(plan.total_energy_mah(), 1),
                   format_double(plan.trip_time(), 1),
                   std::to_string(in_window) + "/" + std::to_string(signals)});
    csv.add_row({mode_id, penalty.m, plan.total_energy_mah(), plan.trip_time(),
                 static_cast<double>(in_window)});
  };
  for (const double m : {2.0, 10.0, 100.0, 1000.0, 100000.0}) {
    core::PenaltyConfig p;
    p.mode = core::PenaltyMode::kMultiplicative;
    p.m = m;
    evaluate("multiplicative M=" + format_double(m, 0), 0, p);
  }
  {
    core::PenaltyConfig p;
    p.mode = core::PenaltyMode::kAdditive;
    evaluate("additive 500 mAh", 1, p);
  }
  {
    core::PenaltyConfig p;
    p.mode = core::PenaltyMode::kHard;
    evaluate("hard (+inf)", 2, p);
  }
  table.print(std::cout);
  save_csv("ablation_a2_penalty.csv", csv);
}

void a3_time_value_sweep() {
  print_header("A3 - value-of-time sweep (energy/time Pareto)");
  const ExperimentWorld world;
  TextTable table({"lambda [mAh/s]", "plan trip [s]", "plan energy [mAh]", "exec trip [s]",
                   "exec energy [mAh]"});
  CsvTable csv;
  csv.columns = {"lambda", "plan_trip_s", "plan_mah", "exec_trip_s", "exec_mah"};
  for (const double lambda : {0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0}) {
    core::PlannerConfig cfg = world.planner_config(core::SignalPolicy::kQueueAware);
    cfg.time_weight_mah_per_s = lambda;
    const core::VelocityPlanner planner(world.corridor, world.energy, cfg);
    const core::PlannedProfile plan = planner.plan(Seconds(world.depart_s), world.lane_demand());
    const auto exec = world.execute(plan);
    const double exec_mah =
        exec.completed ? world.evaluate(exec.cycle).energy.charge_mah : -1.0;
    table.add_row({format_double(lambda, 1), format_double(plan.trip_time(), 1),
                   format_double(plan.total_energy_mah(), 1),
                   exec.completed ? format_double(exec.cycle.duration(), 1) : "timeout",
                   exec.completed ? format_double(exec_mah, 1) : "-"});
    csv.add_row({lambda, plan.trip_time(), plan.total_energy_mah(),
                 exec.completed ? exec.cycle.duration() : -1.0, exec_mah});
  }
  table.print(std::cout);
  save_csv("ablation_a3_time_value.csv", csv);
}

void a4_grid_sweep() {
  print_header("A4 - DP grid resolution");
  const ExperimentWorld world;
  TextTable table({"ds [m]", "dv [m/s]", "dt [s]", "states", "relaxations", "plan energy [mAh]",
                   "trip [s]"});
  CsvTable csv;
  csv.columns = {"ds", "dv", "dt", "states", "relaxations", "energy_mah", "trip_s"};
  struct Grid {
    double ds, dv, dt;
  };
  for (const Grid g : {Grid{5.0, 0.5, 0.5}, Grid{10.0, 0.5, 1.0}, Grid{20.0, 1.0, 1.0},
                       Grid{40.0, 1.0, 2.0}, Grid{40.0, 2.0, 2.0}}) {
    core::PlannerConfig cfg = world.planner_config(core::SignalPolicy::kQueueAware);
    cfg.resolution.ds_m = g.ds;
    cfg.resolution.dv_ms = g.dv;
    cfg.resolution.dt_s = g.dt;
    const core::VelocityPlanner planner(world.corridor, world.energy, cfg);
    const core::DpSolution solution = planner.plan_with_stats(Seconds(world.depart_s), world.lane_demand());
    const double states = static_cast<double>(solution.stats.layers) *
                          static_cast<double>(solution.stats.velocity_levels) *
                          static_cast<double>(solution.stats.time_bins);
    table.add_row({format_double(g.ds, 0), format_double(g.dv, 1), format_double(g.dt, 1),
                   format_double(states / 1e6, 1) + "M",
                   format_double(static_cast<double>(solution.stats.relaxations) / 1e6, 1) + "M",
                   format_double(solution.profile.total_energy_mah(), 1),
                   format_double(solution.profile.trip_time(), 1)});
    csv.add_row({g.ds, g.dv, g.dt, states, static_cast<double>(solution.stats.relaxations),
                 solution.profile.total_energy_mah(), solution.profile.trip_time()});
  }
  table.print(std::cout);
  save_csv("ablation_a4_grid.csv", csv);
}

void a5_regen_sweep() {
  print_header("A5 - regenerative braking conventions (fast-driving trace)");
  ExperimentWorld world;
  const auto fast = world.human_trace(data::fast_driver());
  TextTable table({"convention", "regen eff", "trip energy [mAh]", "regenerated [mAh]"});
  CsvTable csv;
  csv.columns = {"convention_id", "regen_eff", "energy_mah", "regen_mah"};
  struct Case {
    const char* name;
    ev::RegenConvention convention;
    double eff;
  };
  for (const Case c : {Case{"paper Eq.(3)", ev::RegenConvention::kPaperEq3, 1.0},
                       Case{"paper Eq.(3)", ev::RegenConvention::kPaperEq3, 0.6},
                       Case{"paper Eq.(3), no regen", ev::RegenConvention::kPaperEq3, 0.0},
                       Case{"physical", ev::RegenConvention::kPhysical, 1.0},
                       Case{"physical", ev::RegenConvention::kPhysical, 0.6}}) {
    ev::VehicleParams params;
    params.regen_efficiency = c.eff;
    const ev::EnergyModel model(params, 399.0, c.convention);
    const auto e = model.trip(fast.cycle);
    table.add_row({c.name, format_double(c.eff, 1), format_double(e.charge_mah, 1),
                   format_double(e.regenerated_mah, 1)});
    csv.add_row({c.convention == ev::RegenConvention::kPaperEq3 ? 0.0 : 1.0, c.eff, e.charge_mah,
                 e.regenerated_mah});
  }
  table.print(std::cout);
  save_csv("ablation_a5_regen.csv", csv);
}

void a6_margin_sweep() {
  print_header("A6 - window safety margins vs execution robustness");
  TextTable table({"start margin [s]", "end margin [s]", "exec trip [s]", "stops", "drift [s]"});
  CsvTable csv;
  csv.columns = {"start_margin", "end_margin", "exec_trip_s", "stops", "drift_s"};
  struct Case {
    double start, end;
  };
  for (const Case c : {Case{0.0, 0.0}, Case{2.0, 0.0}, Case{0.0, 4.0}, Case{2.0, 4.0},
                       Case{5.0, 8.0}}) {
    ExperimentWorld world;
    core::PlannerConfig cfg = world.planner_config(core::SignalPolicy::kQueueAware);
    cfg.window_start_margin_s = c.start;
    cfg.window_end_margin_s = c.end;
    const core::VelocityPlanner planner(world.corridor, world.energy, cfg);
    const core::PlannedProfile plan = planner.plan(Seconds(world.depart_s), world.lane_demand());
    const auto exec = world.execute(plan);
    table.add_row({format_double(c.start, 0), format_double(c.end, 0),
                   exec.completed ? format_double(exec.cycle.duration(), 1) : "timeout",
                   std::to_string(exec.cycle.stop_count(0.5, 2.0)),
                   exec.completed ? format_double(exec.cycle.duration() - plan.trip_time(), 1)
                                  : "-"});
    csv.add_row({c.start, c.end, exec.completed ? exec.cycle.duration() : -1.0,
                 static_cast<double>(exec.cycle.stop_count(0.5, 2.0)),
                 exec.completed ? exec.cycle.duration() - plan.trip_time() : -1.0});
  }
  table.print(std::cout);
  save_csv("ablation_a6_margins.csv", csv);
}

void a7_grade_sweep() {
  // The paper's stated future work: the effect of road gradient on the
  // optimized profile. A rolling-terrain corridor exercises the grade-aware
  // energy tables of the DP.
  print_header("A7 - road gradient (paper future work)");
  TextTable table({"grade amplitude [%]", "plan energy [mAh]", "trip [s]", "regen [mAh]",
                   "elevation gain [m]"});
  CsvTable csv;
  csv.columns = {"amplitude_pct", "energy_mah", "trip_s", "regen_mah", "gain_m"};
  for (const double amplitude : {0.0, 0.01, 0.02, 0.04}) {
    road::CorridorConfig cc;
    cc.grade_amplitude_rad = amplitude;
    ExperimentWorld world;
    world.corridor = road::make_us25_corridor(cc);
    const core::PlannedProfile plan = world.plan(core::SignalPolicy::kQueueAware);
    const auto eval = world.evaluate(plan.to_drive_cycle(0.5));
    table.add_row({format_double(amplitude * 100.0, 1), format_double(eval.energy.charge_mah, 1),
                   format_double(plan.trip_time(), 1),
                   format_double(eval.energy.regenerated_mah, 1),
                   format_double(world.corridor.route.elevation_gain(), 1)});
    csv.add_row({amplitude * 100.0, eval.energy.charge_mah, plan.trip_time(),
                 eval.energy.regenerated_mah, world.corridor.route.elevation_gain()});
  }
  table.print(std::cout);
  save_csv("ablation_a7_grade.csv", csv);
}

void a8_prediction_error_sweep() {
  // Robustness to arrival-rate misprediction: the planner believes a biased
  // demand while the simulator runs the true one. Overestimation is benign
  // (later, safer crossings); underestimation erodes the advantage.
  print_header("A8 - arrival-rate misprediction (planner belief vs true demand)");
  TextTable table({"belief / truth", "exec energy [mAh]", "exec trip [s]", "stops",
                   "hardest braking"});
  CsvTable csv;
  csv.columns = {"bias", "energy_mah", "trip_s", "stops", "braking"};
  for (const double bias : {0.25, 0.5, 1.0, 1.5, 2.0}) {
    ExperimentWorld world;
    core::PlannerConfig cfg = world.planner_config(core::SignalPolicy::kQueueAware);
    const core::VelocityPlanner planner(world.corridor, world.energy, cfg);
    const auto believed = std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(bias * world.demand_veh_h / world.sim_config.lane_equivalent_count));
    const core::PlannedProfile plan = planner.plan(Seconds(world.depart_s), believed);
    const auto exec = world.execute(plan);
    if (!exec.completed) {
      table.add_row({format_double(bias, 2), "timeout", "-", "-", "-"});
      continue;
    }
    const auto accel = exec.cycle.accelerations();
    double hardest = 0.0;
    for (std::size_t i = 0; i < exec.positions.size(); ++i) {
      for (const auto& light : world.corridor.lights) {
        if (exec.positions[i] > light.position() - 250.0 &&
            exec.positions[i] < light.position() + 10.0)
          hardest = std::min(hardest, accel[i]);
      }
    }
    const auto eval = world.evaluate(exec.cycle);
    table.add_row({format_double(bias, 2), format_double(eval.energy.charge_mah, 1),
                   format_double(eval.trip_time_s, 1), std::to_string(eval.stops),
                   format_double(hardest, 2)});
    csv.add_row({bias, eval.energy.charge_mah, eval.trip_time_s,
                 static_cast<double>(eval.stops), hardest});
  }
  table.print(std::cout);
  save_csv("ablation_a8_prediction_error.csv", csv);
}

void a9_battery_stress() {
  // The paper's Sec. I motivation quantified: smoother profiles cycle the
  // battery less (throughput, peaks, charge-direction reversals).
  print_header("A9 - battery stress per profile (lifetime motivation)");
  ExperimentWorld world;
  const ev::BatteryPack pack;
  TextTable table({"profile", "Ah throughput", "RMS [A]", "peak dis [A]", "peak regen [A]",
                   "reversals", "eq. full cycles"});
  CsvTable csv;
  csv.columns = {"profile_id", "throughput_ah", "rms_a", "peak_dis_a", "peak_regen_a",
                 "reversals", "efc"};
  const auto add = [&](const std::string& name, double id, const ev::DriveCycle& cycle) {
    const auto s = ev::battery_stress(world.energy, pack, cycle);
    table.add_row({name, format_double(s.ah_throughput, 3), format_double(s.rms_current_a, 1),
                   format_double(s.peak_discharge_a, 1), format_double(s.peak_regen_a, 1),
                   std::to_string(s.direction_reversals),
                   format_double(s.equivalent_full_cycles, 4)});
    csv.add_row({id, s.ah_throughput, s.rms_current_a, s.peak_discharge_a, s.peak_regen_a,
                 static_cast<double>(s.direction_reversals), s.equivalent_full_cycles});
  };
  add("fast driving", 0, world.human_trace(data::fast_driver()).cycle);
  add("mild driving", 1, world.human_trace(data::mild_driver()).cycle);
  add("current DP (executed)", 2, world.execute(world.plan(core::SignalPolicy::kGreenWindow)).cycle);
  add("proposed (executed)", 3, world.execute(world.plan(core::SignalPolicy::kQueueAware)).cycle);
  table.print(std::cout);
  save_csv("ablation_a9_battery_stress.csv", csv);
}

void a10_delay_models() {
  // QL-model delay estimates vs the simulator's measured control delay at
  // the first signal, across demand levels.
  print_header("A10 - signal delay: QL estimates vs measured [s/veh]");
  TextTable table({"demand [veh/h]", "our QL", "QL of [9]", "measured"});
  CsvTable csv;
  csv.columns = {"demand_veh_h", "ours_s", "prior_s", "measured_s"};
  for (const double demand : {600.0, 1000.0, 1530.0, 1900.0}) {
    ExperimentWorld world;
    world.demand_veh_h = demand;
    const auto& light = world.corridor.lights[0];
    const traffic::CyclePhases phases{light.red_duration(), light.green_duration()};
    const double lane_rate =
        per_hour_to_per_second(demand / world.sim_config.lane_equivalent_count);
    const traffic::VmParams vm = sim::calibrated_vm_params(
        world.sim_config.background_driver, 13.4, world.sim_config.straight_ratio);
    const auto ours = traffic::estimate_cycle_delay(
        traffic::QueueModel(vm, traffic::DischargeModel::kVmAcceleration), phases, lane_rate);
    const auto prior = traffic::estimate_cycle_delay(
        traffic::QueueModel(vm, traffic::DischargeModel::kInstantMinSpeed), phases, lane_rate);

    sim::Microsim simulator(world.corridor, world.sim_config, world.demand());
    sim::TravelTimeProbe probe(light.position() - 400.0, light.position() + 100.0);
    while (simulator.time() < 1800.0) {
      simulator.step();
      probe.observe(simulator);
    }
    table.add_row({format_double(demand, 0), format_double(ours.avg_delay_s_per_veh, 1),
                   format_double(prior.avg_delay_s_per_veh, 1),
                   format_double(probe.mean_delay(19.0), 1)});
    csv.add_row({demand, ours.avg_delay_s_per_veh, prior.avg_delay_s_per_veh,
                 probe.mean_delay(19.0)});
  }
  table.print(std::cout);
  save_csv("ablation_a10_delay.csv", csv);
}

void a11_coordination() {
  // Does queue-aware planning still matter on a coordinated (green-wave)
  // corridor? Signals tuned for an 18 m/s progression vs the default
  // adversarial offsets, both at the paper's demand.
  print_header("A11 - signal coordination vs queue-aware advantage");
  TextTable table({"offsets", "policy", "exec energy [mAh]", "exec trip [s]", "hard brake"});
  CsvTable csv;
  csv.columns = {"coordinated", "policy_id", "energy_mah", "trip_s", "braking"};
  for (const bool coordinated : {false, true}) {
    ExperimentWorld world;
    if (coordinated) {
      world.corridor =
          road::coordinate_for_progression(world.corridor, 18.0, world.depart_s, 5.0);
    }
    for (const auto policy : {core::SignalPolicy::kQueueAware, core::SignalPolicy::kGreenWindow}) {
      const auto exec = world.execute(world.plan(policy));
      if (!exec.completed) continue;
      const auto accel = exec.cycle.accelerations();
      double hardest = 0.0;
      for (std::size_t i = 0; i < exec.positions.size(); ++i) {
        for (const auto& light : world.corridor.lights) {
          if (exec.positions[i] > light.position() - 250.0 &&
              exec.positions[i] < light.position() + 10.0)
            hardest = std::min(hardest, accel[i]);
        }
      }
      const auto eval = world.evaluate(exec.cycle);
      table.add_row({coordinated ? "green wave" : "adversarial",
                     policy == core::SignalPolicy::kQueueAware ? "queue-aware" : "green-window",
                     format_double(eval.energy.charge_mah, 1), format_double(eval.trip_time_s, 1),
                     format_double(hardest, 2)});
      csv.add_row({coordinated ? 1.0 : 0.0,
                   policy == core::SignalPolicy::kQueueAware ? 0.0 : 1.0,
                   eval.energy.charge_mah, eval.trip_time_s, hardest});
    }
  }
  table.print(std::cout);
  save_csv("ablation_a11_coordination.csv", csv);
}

void a12_glosa_comparison() {
  // Related-work baseline [17]: reactive per-light GLOSA advisory vs the
  // global DP, classic and queue-aware variants, executed in traffic.
  print_header("A12 - heuristic GLOSA vs DP planning (executed)");
  ExperimentWorld world;
  TextTable table({"controller", "energy [mAh]", "trip [s]", "stops", "hard brake"});
  CsvTable csv;
  csv.columns = {"controller_id", "energy_mah", "trip_s", "stops", "braking"};

  const auto run_target = [&](const sim::TargetSpeedFn& target, const std::string& name,
                              double id) {
    sim::Microsim simulator(world.corridor, world.sim_config, world.demand());
    simulator.run_until(world.depart_s);
    sim::DriverParams ego;
    ego.accel_ms2 = world.energy.params().max_acceleration;
    ego.decel_ms2 = -world.energy.params().min_acceleration * 2.0;
    const auto exec = sim::execute_planned_profile(simulator, target, 0.0,
                                                   world.corridor.length(), 900.0, ego);
    if (!exec.completed) {
      table.add_row({name, "timeout", "-", "-", "-"});
      return;
    }
    const auto accel = exec.cycle.accelerations();
    double hardest = 0.0;
    for (std::size_t i = 0; i < exec.positions.size(); ++i) {
      for (const auto& light : world.corridor.lights) {
        if (exec.positions[i] > light.position() - 250.0 &&
            exec.positions[i] < light.position() + 10.0)
          hardest = std::min(hardest, accel[i]);
      }
    }
    const auto eval = world.evaluate(exec.cycle);
    table.add_row({name, format_double(eval.energy.charge_mah, 1),
                   format_double(eval.trip_time_s, 1), std::to_string(eval.stops),
                   format_double(hardest, 2)});
    csv.add_row({id, eval.energy.charge_mah, eval.trip_time_s,
                 static_cast<double>(eval.stops), hardest});
  };

  core::GlosaConfig classic;
  run_target(core::GlosaAdvisor(world.corridor, classic).target_speed_fn(), "GLOSA (classic)", 0);
  core::GlosaConfig aware;
  aware.queue_aware = true;
  aware.vm = sim::calibrated_vm_params(world.sim_config.background_driver, 13.4,
                                       world.sim_config.straight_ratio);
  run_target(core::GlosaAdvisor(world.corridor, aware, world.lane_demand()).target_speed_fn(),
             "GLOSA (queue-aware)", 1);
  run_target(world.plan(core::SignalPolicy::kGreenWindow).target_speed_fn(), "DP (current)", 2);
  run_target(world.plan(core::SignalPolicy::kQueueAware).target_speed_fn(), "DP (proposed)", 3);
  table.print(std::cout);
  save_csv("ablation_a12_glosa.csv", csv);
}

void a13_car_following_robustness() {
  // Do the headline conclusions survive swapping the car-following model?
  print_header("A13 - Krauss vs IDM background traffic (executed)");
  TextTable table({"model", "policy", "energy [mAh]", "trip [s]", "hard brake"});
  CsvTable csv;
  csv.columns = {"model_id", "policy_id", "energy_mah", "trip_s", "braking"};
  for (const auto model : {sim::CarFollowing::kKrauss, sim::CarFollowing::kIdm}) {
    ExperimentWorld world;
    world.sim_config.car_following = model;
    for (const auto policy : {core::SignalPolicy::kQueueAware, core::SignalPolicy::kGreenWindow}) {
      const auto exec = world.execute(world.plan(policy));
      if (!exec.completed) continue;
      const auto accel = exec.cycle.accelerations();
      double hardest = 0.0;
      for (std::size_t i = 0; i < exec.positions.size(); ++i) {
        for (const auto& light : world.corridor.lights) {
          if (exec.positions[i] > light.position() - 250.0 &&
              exec.positions[i] < light.position() + 10.0)
            hardest = std::min(hardest, accel[i]);
        }
      }
      const auto eval = world.evaluate(exec.cycle);
      table.add_row({model == sim::CarFollowing::kKrauss ? "Krauss" : "IDM",
                     policy == core::SignalPolicy::kQueueAware ? "queue-aware" : "green-window",
                     format_double(eval.energy.charge_mah, 1), format_double(eval.trip_time_s, 1),
                     format_double(hardest, 2)});
      csv.add_row({model == sim::CarFollowing::kKrauss ? 0.0 : 1.0,
                   policy == core::SignalPolicy::kQueueAware ? 0.0 : 1.0,
                   eval.energy.charge_mah, eval.trip_time_s, hardest});
    }
  }
  table.print(std::cout);
  save_csv("ablation_a13_car_following.csv", csv);
}

void a14_efficiency_map() {
  // Constant eta_2 (the paper) vs a realistic motor efficiency map: does the
  // optimal profile or the headline saving change materially?
  print_header("A14 - constant eta_2 vs motor efficiency map");
  TextTable table({"energy model", "policy", "plan energy [mAh]", "plan trip [s]",
                   "mean speed [km/h]"});
  CsvTable csv;
  csv.columns = {"mapped", "policy_id", "energy_mah", "trip_s", "mean_speed_kmh"};
  for (const bool mapped : {false, true}) {
    ExperimentWorld world;
    if (mapped) {
      world.energy.set_powertrain_map(
          std::make_shared<ev::EfficiencyMap>(ev::EfficiencyMap::typical_ev_motor()));
    }
    for (const auto policy : {core::SignalPolicy::kQueueAware, core::SignalPolicy::kGreenWindow}) {
      const core::PlannedProfile plan = world.plan(policy);
      const auto eval = world.evaluate(plan.to_drive_cycle(0.5));
      const double mean_kmh = ms_to_kmh(plan.length() / plan.trip_time());
      table.add_row({mapped ? "motor map" : "constant eta",
                     policy == core::SignalPolicy::kQueueAware ? "queue-aware" : "green-window",
                     format_double(eval.energy.charge_mah, 1), format_double(plan.trip_time(), 1),
                     format_double(mean_kmh, 1)});
      csv.add_row({mapped ? 1.0 : 0.0,
                   policy == core::SignalPolicy::kQueueAware ? 0.0 : 1.0,
                   eval.energy.charge_mah, plan.trip_time(), mean_kmh});
    }
  }
  table.print(std::cout);
  save_csv("ablation_a14_efficiency_map.csv", csv);
}

void a15_bound_pruning() {
  // Admissible cost-to-go bound pruning (DESIGN.md "Bound pruning") must
  // leave every optimum untouched while skipping most relaxations. Each
  // departure is a distinct cold solve (a repeated one would be spliced).
  print_header("A15 - DP bound pruning on/off (cold US-25 solves)");
  const ExperimentWorld world;
  TextTable table({"bound pruning", "solves", "relaxations/solve", "ms/solve", "sweeps/solve",
                   "costs equal"});
  CsvTable csv;
  csv.columns = {"bound_pruning", "solves", "relaxations", "ms_per_solve", "sweeps",
                 "costs_equal"};
  constexpr int kSolves = 8;
  std::vector<double> exhaustive_costs;
  for (const bool bound : {false, true}) {
    core::PlannerConfig cfg = world.planner_config(core::SignalPolicy::kQueueAware);
    cfg.bound_pruning = bound;
    const core::VelocityPlanner planner(world.corridor, world.energy, cfg);
    double relaxations = 0.0, sweeps = 0.0, seconds = 0.0;
    bool equal = true;
    for (int k = 0; k < kSolves; ++k) {
      const std::uint64_t t0 = common::now_ns();
      const core::DpSolution solution = planner.plan_with_stats(
          Seconds(world.depart_s + 7.0 * static_cast<double>(k)), world.lane_demand());
      seconds += common::seconds_between_ns(t0, common::now_ns());
      relaxations += static_cast<double>(solution.stats.relaxations);
      sweeps += static_cast<double>(std::max<std::size_t>(solution.stats.bound_attempts, 1));
      if (!bound) exhaustive_costs.push_back(solution.stats.best_cost_mah);
      else equal = equal && solution.stats.best_cost_mah == exhaustive_costs[k];
    }
    table.add_row({bound ? "on" : "off", std::to_string(kSolves),
                   format_double(relaxations / kSolves / 1e6, 2) + "M",
                   format_double(1e3 * seconds / kSolves, 1), format_double(sweeps / kSolves, 2),
                   equal ? "yes" : "NO"});
    csv.add_row({bound ? 1.0 : 0.0, static_cast<double>(kSolves), relaxations / kSolves,
                 1e3 * seconds / kSolves, sweeps / kSolves, equal ? 1.0 : 0.0});
  }
  table.print(std::cout);
  save_csv("ablation_a15_bound_pruning.csv", csv);
}

}  // namespace
}  // namespace evvo::bench

int main() {
  evvo::bench::a1_demand_sweep();
  evvo::bench::a2_penalty_sweep();
  evvo::bench::a3_time_value_sweep();
  evvo::bench::a4_grid_sweep();
  evvo::bench::a5_regen_sweep();
  evvo::bench::a6_margin_sweep();
  evvo::bench::a7_grade_sweep();
  evvo::bench::a8_prediction_error_sweep();
  evvo::bench::a9_battery_stress();
  evvo::bench::a10_delay_models();
  evvo::bench::a11_coordination();
  evvo::bench::a12_glosa_comparison();
  evvo::bench::a13_car_following_robustness();
  evvo::bench::a14_efficiency_map();
  evvo::bench::a15_bound_pruning();
  return 0;
}
