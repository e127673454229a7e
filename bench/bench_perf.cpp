// Microbenchmarks (google-benchmark): solver, simulator, predictor, and
// model hot paths. These size the system: a full queue-aware plan for the
// 4.2 km corridor, SAE training epochs, and microsim step throughput.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "cloud/plan_service.hpp"
#include "common/simd.hpp"
#include "common/telemetry.hpp"
#include "core/dp_replan.hpp"
#include "core/planner.hpp"
#include "data/synthetic_volume.hpp"
#include "ev/energy_model.hpp"
#include "learn/sae.hpp"
#include "road/corridor.hpp"
#include "sim/calibration.hpp"
#include "sim/microsim.hpp"
#include "traffic/queue_predictor.hpp"
#include "traffic/traffic_predictor.hpp"

namespace evvo {
namespace {

/// Request time of the k-th hit of a cache benchmark: phase-congruent with
/// 600 s (60 s steps, the US-25 hyperperiod) and wrapped so that millions of
/// iterations stay inside the solver's float clock, which PlanService
/// enforces on hits too.
double congruent_time(long k) { return 600.0 + 60.0 * static_cast<double>(k % 100000); }

void BM_EnergyRate(benchmark::State& state) {
  const ev::EnergyModel model;
  double v = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.current_a(MetersPerSecond(v), MetersPerSecondSquared(0.5), 0.01));
    v = v < 30.0 ? v + 0.01 : 1.0;
  }
}
BENCHMARK(BM_EnergyRate);

void BM_QueueWindows(benchmark::State& state) {
  const road::TrafficLight light(1820.0, 30.0, 30.0);
  const traffic::QueuePredictor predictor(
      light, traffic::QueueModel(traffic::VmParams{}),
      std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(765.0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.zero_queue_windows(Seconds(0.0), Seconds(600.0)));
  }
}
BENCHMARK(BM_QueueWindows);

void BM_DpSolveCorridor(benchmark::State& state) {
  const road::Corridor corridor = road::make_us25_corridor();
  const ev::EnergyModel energy;
  core::PlannerConfig cfg;
  cfg.policy = core::SignalPolicy::kQueueAware;
  cfg.resolution.ds_m = static_cast<double>(state.range(0));
  const core::VelocityPlanner planner(corridor, energy, cfg);
  const auto arrivals = std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(765.0));
  // Step the departure by one hyperperiod per iteration: the workload is
  // identical (phase-congruent windows), but the warm-start fingerprint keys
  // on absolute depart time, so every solve runs the full cold sweep this
  // benchmark is meant to measure.
  double depart_s = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(Seconds(depart_s), arrivals));
    depart_s += 60.0;
  }
  state.SetLabel("ds=" + std::to_string(state.range(0)) + "m");
}
BENCHMARK(BM_DpSolveCorridor)->Arg(10)->Arg(20)->Arg(40)->Unit(benchmark::kMillisecond);

/// The replan microbenchmarks mutate one T_q window of the *last* enforced
/// signal (light2 at 3460 m of the 4200 m corridor) between two values, so
/// every solve sees a real edit and the warm path re-relaxes only the ~18%
/// of layers behind it - the small-perturbation workload a rolling-horizon
/// replanner produces every few seconds.
struct ReplanWorkload {
  road::Corridor corridor = road::make_us25_corridor();
  ev::EnergyModel energy;
  core::DpProblem problem;
  road::TimeWindow* window = nullptr;  ///< first window of the last enforced signal
  double end0 = 0.0;

  ReplanWorkload() {
    core::PlannerConfig cfg;
    cfg.policy = core::SignalPolicy::kQueueAware;
    const core::VelocityPlanner planner(corridor, energy, cfg);
    problem.route = &corridor.route;
    problem.energy = &energy;
    problem.depart_time = Seconds(0.0);
    problem.resolution = cfg.resolution;
    problem.penalty = cfg.penalty;
    problem.time_weight_mah_per_s = cfg.time_weight_mah_per_s;
    problem.smoothness_weight_mah_per_ms = cfg.smoothness_weight_mah_per_ms;
    problem.events = planner.build_events(
        Seconds(0.0), std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(765.0)));
    core::LayerEvent* last = nullptr;
    for (core::LayerEvent& e : problem.events) {
      if (e.enforce_windows && !e.windows.empty() && (!last || e.layer > last->layer)) last = &e;
    }
    window = &last->windows.front();
    end0 = window->end_s;
  }

  void shift_window(bool flip) { window->end_s = flip ? end0 - 1.0 : end0; }
};

void BM_DpReplanWarm(benchmark::State& state) {
  // Warm replan after a single T_q window shift: dirty-stripe re-relaxation
  // from the edited signal's layer. Gate pair: must stay >=5x cheaper than
  // BM_DpReplanCold / BM_DpSolveCorridor/10 (same grid, full sweep).
  ReplanWorkload w;
  core::DpWorkspace workspace;
  core::DpPrevSolution prev;
  (void)core::solve_dp_incremental(w.problem, prev, workspace);  // bootstrap cold
  bool flip = false;
  core::DpReplanStats rstats;
  for (auto _ : state) {
    w.shift_window(flip = !flip);
    benchmark::DoNotOptimize(core::solve_dp_incremental(w.problem, prev, workspace, &rstats));
  }
  state.SetLabel("stripes from layer " + std::to_string(rstats.first_relax) + "/" +
                 std::to_string(rstats.total_layers) + ", ds=10m");
}
BENCHMARK(BM_DpReplanWarm)->Unit(benchmark::kMillisecond);

void BM_DpReplanSplice(benchmark::State& state) {
  // Resubmission of an unchanged problem: the warm solver returns the cached
  // solution without touching the tables (the request_replans steady state).
  ReplanWorkload w;
  core::DpWorkspace workspace;
  core::DpPrevSolution prev;
  (void)core::solve_dp_incremental(w.problem, prev, workspace);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_dp_incremental(w.problem, prev, workspace));
  }
  state.SetLabel("unchanged resubmission, ds=10m");
}
BENCHMARK(BM_DpReplanSplice)->Unit(benchmark::kMillisecond);

void BM_DpReplanCold(benchmark::State& state) {
  // The same window-shift workload solved cold every time: the baseline the
  // warm path's >=5x target is measured against, on identical problems.
  ReplanWorkload w;
  core::DpWorkspace workspace;
  bool flip = false;
  for (auto _ : state) {
    w.shift_window(flip = !flip);
    benchmark::DoNotOptimize(core::solve_dp(w.problem, workspace));
  }
  state.SetLabel("full sweep per edit, ds=10m");
}
BENCHMARK(BM_DpReplanCold)->Unit(benchmark::kMillisecond);

void BM_PlanServiceReplanHit(benchmark::State& state) {
  // Segment-memo hit path: mid-route replans whose quantized state and cycle
  // phase repeat are served by time-shifting the cached tail.
  sim::MicrosimConfig sim_cfg;
  core::PlannerConfig cfg;
  cfg.vm = sim::calibrated_vm_params(sim_cfg.background_driver, 13.4, sim_cfg.straight_ratio);
  cloud::PlanService service(
      core::VelocityPlanner(road::make_us25_corridor(), ev::EnergyModel{}, cfg),
      std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(765.0)));
  (void)service.request_replan({0, 2000.0, 15.0, 600.0});  // warm the memo
  long tick = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        service.request_replan({1, 2000.0, 15.0, congruent_time(++tick)}));
  }
  state.SetLabel("phase-congruent mid-route states served from the memo");
}
BENCHMARK(BM_PlanServiceReplanHit);

void BM_MicrosimStep(benchmark::State& state) {
  sim::MicrosimConfig cfg;
  cfg.seed = 3;
  sim::Microsim simulator(road::make_us25_corridor(), cfg,
                          std::make_shared<traffic::ConstantArrivalRate>(
                              flow_from_veh_h(static_cast<double>(state.range(0)))));
  simulator.run_until(600.0);  // populate
  for (auto _ : state) {
    simulator.step();
  }
  state.SetLabel(std::to_string(state.range(0)) + " veh/h, ~" +
                 std::to_string(simulator.vehicles().size()) + " vehicles");
}
BENCHMARK(BM_MicrosimStep)->Arg(800)->Arg(1530)->Arg(2400);

void BM_SaeTrainEpoch(benchmark::State& state) {
  const auto ds = data::make_us25_dataset(data::VolumePatternConfig{}, 4, 1);
  traffic::PredictorConfig cfg;
  cfg.sae.pretrain_epochs = 0;
  cfg.sae.finetune_epochs = 1;
  for (auto _ : state) {
    traffic::SaeVolumePredictor predictor(cfg);
    predictor.fit(ds.train);
    benchmark::DoNotOptimize(predictor);
  }
  state.SetLabel("1 finetune epoch over 4 weeks hourly");
}
BENCHMARK(BM_SaeTrainEpoch)->Unit(benchmark::kMillisecond);

learn::Matrix deterministic_matrix(std::size_t rows, std::size_t cols, double scale) {
  learn::Matrix m(rows, cols);
  std::size_t k = 0;
  for (double& v : m.flat()) v = scale * (0.5 + 0.5 * std::sin(0.7 * static_cast<double>(++k)));
  return m;
}

void BM_SaeForward(benchmark::State& state) {
  // Raw SAE forward pass (the matmul_bt hot path) on a batch of `rows`
  // feature vectors: isolates the GEMM kernel from feature building.
  const auto rows = static_cast<std::size_t>(state.range(0));
  learn::SaeConfig cfg;
  cfg.input_dim = 26;
  cfg.pretrain_epochs = 0;
  learn::StackedAutoencoder sae(cfg);
  (void)sae.finetune(deterministic_matrix(64, cfg.input_dim, 1.0), deterministic_matrix(64, 1, 1.0),
                     1);
  const learn::Matrix x = deterministic_matrix(rows, cfg.input_dim, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sae.predict(x));
  }
  state.SetLabel("batch=" + std::to_string(rows) + ", 26-32-16-1");
}
BENCHMARK(BM_SaeForward)->Arg(1)->Arg(64);

void BM_SaePredict(benchmark::State& state) {
  const auto ds = data::make_us25_dataset(data::VolumePatternConfig{}, 4, 1);
  traffic::PredictorConfig cfg;
  cfg.sae.pretrain_epochs = 2;
  cfg.sae.finetune_epochs = 5;
  traffic::SaeVolumePredictor predictor(cfg);
  predictor.fit(ds.train);
  std::vector<double> window(cfg.window_hours, 700.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.predict_next(window, 8, 2));
  }
}
BENCHMARK(BM_SaePredict);

void BM_SaePredictBatch(benchmark::State& state) {
  // Corridor-wide forecast: one predict_batch over `n` calendar slots vs n
  // predict_next calls (the amortization predict_batch exists for).
  const auto ds = data::make_us25_dataset(data::VolumePatternConfig{}, 4, 1);
  traffic::PredictorConfig cfg;
  cfg.sae.pretrain_epochs = 2;
  cfg.sae.finetune_epochs = 5;
  traffic::SaeVolumePredictor predictor(cfg);
  predictor.fit(ds.train);
  const std::vector<double> window(cfg.window_hours, 700.0);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<traffic::VolumeQuery> queries(n);
  for (std::size_t i = 0; i < n; ++i) {
    queries[i] = {window, static_cast<int>(i % 24), static_cast<int>(i / 24 % 7)};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.predict_batch(queries));
  }
  state.SetLabel(std::to_string(n) + " queries, one stack pass");
}
BENCHMARK(BM_SaePredictBatch)->Arg(24);

void BM_QueueClearTime(benchmark::State& state) {
  const traffic::QueueModel model{traffic::VmParams{}};
  const traffic::CyclePhases phases{30.0, 30.0};
  double rate = 0.05;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.clear_time(phases, VehiclesPerSecond(rate)));
    rate = rate < 1.5 ? rate + 0.001 : 0.05;
  }
}
BENCHMARK(BM_QueueClearTime);

void BM_PlanServiceCachedRequest(benchmark::State& state) {
  sim::MicrosimConfig sim_cfg;
  core::PlannerConfig cfg;
  cfg.vm = sim::calibrated_vm_params(sim_cfg.background_driver, 13.4, sim_cfg.straight_ratio);
  cloud::PlanService service(
      core::VelocityPlanner(road::make_us25_corridor(), ev::EnergyModel{}, cfg),
      std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(765.0)));
  (void)service.request_plan({0, 600.0});  // warm the cache
  long depart = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.request_plan({1, congruent_time(++depart)}));
  }
  state.SetLabel("phase-congruent departures served from cache");
}
BENCHMARK(BM_PlanServiceCachedRequest);

void BM_PlanServiceTicketHit(benchmark::State& state) {
  // The zero-copy hit path: same traffic as BM_PlanServiceCachedRequest but
  // served as a PlanTicket (shared reference + shift), so the node-vector
  // copy the PlanResponse API materializes never happens.
  sim::MicrosimConfig sim_cfg;
  core::PlannerConfig cfg;
  cfg.vm = sim::calibrated_vm_params(sim_cfg.background_driver, 13.4, sim_cfg.straight_ratio);
  cloud::PlanService service(
      core::VelocityPlanner(road::make_us25_corridor(), ev::EnergyModel{}, cfg),
      std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(765.0)));
  (void)service.request_plan({0, 600.0});  // warm the cache
  long depart = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.request_plan_ticket({1, congruent_time(++depart)}));
  }
  state.SetLabel("cache hits served as tickets, no profile copy");
}
BENCHMARK(BM_PlanServiceTicketHit);

void BM_PlanServiceShardedBatchHit(benchmark::State& state) {
  // Fleet tick on an 8-shard service: a 64-request batch over a handful of
  // phase-congruent departure bins, served through the grouped ticket path
  // (one cache transaction per distinct key per tick).
  sim::MicrosimConfig sim_cfg;
  core::PlannerConfig cfg;
  cfg.vm = sim::calibrated_vm_params(sim_cfg.background_driver, 13.4, sim_cfg.straight_ratio);
  cloud::CacheConfig cache;
  cache.shards = 8;
  cloud::PlanService service(
      core::VelocityPlanner(road::make_us25_corridor(), ev::EnergyModel{}, cfg),
      std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(765.0)), cache);
  constexpr int kBatch = 64;
  constexpr int kBins = 4;
  for (int b = 0; b < kBins; ++b) (void)service.request_plan({b, 600.0 + 11.0 * b});
  std::vector<cloud::PlanRequest> requests;
  long tick = 0;
  for (auto _ : state) {
    state.PauseTiming();
    requests.clear();
    const double epoch = congruent_time(++tick);
    for (int i = 0; i < kBatch; ++i) requests.push_back({i, epoch + 11.0 * (i % kBins)});
    state.ResumeTiming();
    benchmark::DoNotOptimize(service.request_plan_tickets(requests));
  }
  state.SetLabel(std::to_string(kBatch) + " requests over " + std::to_string(kBins) +
                 " bins, grouped ticket dispatch");
}
BENCHMARK(BM_PlanServiceShardedBatchHit);

void BM_PlanServiceConcurrentMisses(benchmark::State& state) {
  // A batch of distinct-key misses: the leaders solve one after another on
  // the calling thread, which then materializes the responses.
  sim::MicrosimConfig sim_cfg;
  core::PlannerConfig cfg;
  cfg.vm = sim::calibrated_vm_params(sim_cfg.background_driver, 13.4, sim_cfg.straight_ratio);
  cfg.resolution.ds_m = 40.0;  // coarse grid: many solves per iteration
  constexpr int kBatch = 8;
  for (auto _ : state) {
    state.PauseTiming();
    cloud::PlanService service(
        core::VelocityPlanner(road::make_us25_corridor(), ev::EnergyModel{}, cfg),
        std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(765.0)));
    std::vector<cloud::PlanRequest> requests;
    for (int i = 0; i < kBatch; ++i) requests.push_back({i, 600.0 + 7.0 * i});
    state.ResumeTiming();
    benchmark::DoNotOptimize(service.request_plans(requests));
  }
  state.SetLabel(std::to_string(kBatch) + " distinct-key misses");
}
// The argument is vestigial (it once sized a materialize pool); it keeps the
// name the committed baseline gates.
BENCHMARK(BM_PlanServiceConcurrentMisses)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_TelemetryOverhead(benchmark::State& state) {
  // Per-event cost of the instrumentation the hot paths carry: one sharded
  // counter add plus one TraceSpan (two clock reads + histogram record) —
  // what the DP solver pays per relaxed layer. Gated in CI like the solver benches;
  // in EVVO_TELEMETRY=OFF builds the span compiles away and this measures
  // the counter alone.
  static telemetry::Counter& ctr = telemetry::counter("bench.telemetry.events");
  static telemetry::Histogram& hist = telemetry::histogram("bench.telemetry.span_ns");
  for (auto _ : state) {
    const telemetry::TraceSpan span(hist, "bench.telemetry");
    ctr.add();
  }
  benchmark::DoNotOptimize(ctr.value());
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_TelemetryOverhead);

}  // namespace
}  // namespace evvo

// Custom main instead of BENCHMARK_MAIN(): debug builds produced a bogus
// committed baseline once (BENCH_dp.json recorded with asserts on), so a
// non-NDEBUG binary refuses to run unless explicitly overridden, and every
// JSON report carries build + SIMD-backend tags that tools/bench_compare
// checks before trusting the numbers.
int main(int argc, char** argv) {
#if defined(NDEBUG)
  const bool release_build = true;
#else
  const bool release_build = false;
#endif
  if (!release_build && std::getenv("EVVO_ALLOW_DEBUG_BENCH") == nullptr) {
    std::fprintf(stderr,
                 "bench_perf: this binary was compiled without NDEBUG; debug numbers must never\n"
                 "become a baseline. Rebuild with -DCMAKE_BUILD_TYPE=Release, or set\n"
                 "EVVO_ALLOW_DEBUG_BENCH=1 to run anyway (output stays tagged evvo_build=debug).\n");
    return 1;
  }
  benchmark::AddCustomContext("evvo_build", release_build ? "release" : "debug");
  benchmark::AddCustomContext("evvo_simd", evvo::common::simd::kBackendName);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
