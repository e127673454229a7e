#include "drivers.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "common/random.hpp"
#include "common/telemetry.hpp"
#include "traffic/queue_predictor.hpp"

namespace fleetbench {

using namespace evvo;

// --- Program time and probes ----------------------------------------------------

ProgramTime::ProgramTime(const telemetry::Histogram* service_batch_solve)
    : batch_solve(service_batch_solve),
      dp_cold(telemetry::histogram("dp.solve_cold_ns")),
      dp_warm(telemetry::histogram("dp.solve_warm_ns")) {}

ProgramTime::Mark ProgramTime::mark() const {
  return Mark{batch_solve != nullptr ? batch_solve->sum() : 0, dp_cold.sum() + dp_warm.sum()};
}

double ProgramTime::cloud_covered_ns(const Mark& before) const {
  const Mark after = mark();
  // A batched leader solve contains its DP runs (ragged-lane fallbacks);
  // a lone leader solves through the planner, outside any batch span.
  if (after.batch != before.batch) return static_cast<double>(after.batch - before.batch);
  return static_cast<double>(after.dp - before.dp);
}

double ProgramTime::dp_ns(const Mark& before) const {
  return static_cast<double>(mark().dp - before.dp);
}

void probe_layers(ThreadTrace& trace, const core::VelocityPlanner& planner,
                  const std::shared_ptr<const traffic::ArrivalRateProvider>& rate,
                  double time_s, std::uint64_t request) {
  {
    const Span span(&trace, SpanKind::kBuildEvents, request);
    (void)planner.build_events(Seconds(time_s), rate);
  }
  const core::PlannerConfig& cfg = planner.config();
  for (const road::TrafficLight& light : planner.corridor().lights) {
    const traffic::QueuePredictor predictor(light, traffic::QueueModel(cfg.vm, cfg.discharge),
                                            rate);
    const Span span(&trace, SpanKind::kWindows, request);
    (void)predictor.zero_queue_windows(Seconds(time_s),
                                       Seconds(time_s + cfg.resolution.horizon_s));
  }
}

namespace {

/// Bernoulli rate that samples about `want` of `population` items.
double sample_rate(double want, std::size_t population) {
  return std::min(1.0, want / static_cast<double>(std::max<std::size_t>(1, population)));
}

void accumulate_quality(RunResult& r, const core::PlannedProfile& profile) {
  r.energy_sum_mah += profile.total_energy_mah();
  r.trip_sum_s += profile.trip_time();
  ++r.quality_n;
}

/// Serves one batch of cloud requests as the fleet path does (plan tickets,
/// then replan tickets), materializes every ticket, and records each
/// request's latency from `origin_ns[i]` to its profile being in hand.
/// `on_served(i, ticket, profile)` sees every served request.
template <typename OnServed>
void serve_cloud_batch(cloud::PlanService& service, const std::vector<const CloudRequest*>& batch,
                       const std::vector<std::uint64_t>& origin_ns, RunResult& r,
                       ThreadTrace* trace, const ProgramTime& program, std::uint64_t request_id,
                       OnServed&& on_served) {
  std::vector<cloud::PlanRequest> plans;
  std::vector<cloud::ReplanRequest> replans;
  std::vector<std::size_t> plan_idx;
  std::vector<std::size_t> replan_idx;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const CloudRequest& q = *batch[i];
    if (q.replan) {
      replans.push_back({q.vehicle, q.position_m, q.speed_ms, q.time_s});
      replan_idx.push_back(i);
    } else {
      plans.push_back({q.vehicle, q.time_s});
      plan_idx.push_back(i);
    }
  }
  r.attempted += batch.size();

  const auto call = [&](auto&& request_fn, std::size_t n) {
    std::vector<cloud::PlanTicket> tickets;
    if (n == 0) return tickets;
    Span span(trace, SpanKind::kCloudCall, request_id);
    const ProgramTime::Mark before = program.mark();
    try {
      tickets = request_fn();
    } catch (const cloud::ServiceOverload&) {
      r.thrown += n;
      r.overloaded += n;
    } catch (...) {
      r.thrown += n;
    }
    if (trace != nullptr) span.cover(program.cloud_covered_ns(before));
    return tickets;
  };
  const std::vector<cloud::PlanTicket> plan_tickets =
      call([&] { return service.request_plan_tickets(plans); }, plans.size());
  const std::vector<cloud::PlanTicket> replan_tickets =
      call([&] { return service.request_replan_tickets(replans); }, replans.size());

  const auto deliver = [&](const std::vector<cloud::PlanTicket>& tickets,
                           const std::vector<std::size_t>& idx) {
    for (std::size_t k = 0; k < tickets.size(); ++k) {
      std::optional<core::PlannedProfile> profile;
      {
        const Span span(trace, SpanKind::kMaterialize, request_id);
        profile.emplace(tickets[k].materialize());
      }
      r.latency.record(now_ns() - origin_ns[idx[k]]);
      ++r.served;
      r.materialized_bytes +=
          static_cast<double>(profile->nodes().size() * sizeof(core::PlanNode));
      on_served(idx[k], tickets[k], std::move(*profile));
    }
  };
  deliver(plan_tickets, plan_idx);
  deliver(replan_tickets, replan_idx);
}

/// Waits for `target`: sleeps most of the gap, spins the last millisecond.
/// Sleeping alone would add the scheduler's wake-up delay to every
/// open-loop request; spinning throughout would take a vCPU from the
/// system on a shared host.
void wait_until_ns(std::uint64_t target) {
  constexpr std::uint64_t kSpinNs = 1'000'000;
  const std::uint64_t now = now_ns();
  if (target > now + kSpinNs)
    std::this_thread::sleep_for(std::chrono::nanoseconds(target - now - kSpinNs));
  while (now_ns() < target) {
  }
}

}  // namespace

// --- fleet_hits -------------------------------------------------------------------

RunResult run_fleet_hits(cloud::PlanService& service, const FleetHitsInput& input,
                         double seconds, bool traced, const core::VelocityPlanner& probe,
                         std::uint64_t sample_seed, const telemetry::Histogram* batch_solve) {
  const std::size_t clients = input.streams.size();
  std::vector<RunResult> parts(clients);
  std::vector<std::unique_ptr<ThreadTrace>> traces(clients);
  if (traced) {
    for (std::size_t c = 0; c < clients; ++c)
      traces[c] = std::make_unique<ThreadTrace>(static_cast<std::uint32_t>(c));
  }
  const ProgramTime program(batch_solve);
  const auto demand = arterial_demand();

  std::size_t first_pass = 0;
  for (const auto& stream : input.streams)
    for (const auto& tick : stream) first_pass += tick.size();
  const double sample_p = sample_rate(48.0, first_pass);

  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> start_ns{0};
  const auto deadline_of = [&] {
    return start_ns.load(std::memory_order_acquire) + static_cast<std::uint64_t>(seconds * 1e9);
  };
  std::vector<std::uint64_t> end_ns(clients, 0);

  const auto client = [&](std::size_t c) {
    while (!go.load(std::memory_order_acquire)) {
    }
    const std::uint64_t deadline = deadline_of();
    RunResult& r = parts[c];
    ThreadTrace* trace = traces[c].get();
    Rng sampler(sample_seed * 31 + c);
    const auto& ticks = input.streams[c];
    std::vector<const CloudRequest*> batch;
    std::vector<std::uint64_t> origin;
    std::uint64_t tick_id = (static_cast<std::uint64_t>(c) << 40);
    bool first = true;
    for (std::size_t t = 0; now_ns() < deadline; ++t) {
      if (t == ticks.size()) {
        t = 0;
        first = false;
      }
      const auto& tick = ticks[t];
      batch.clear();
      for (const CloudRequest& q : tick) batch.push_back(&q);
      {
        Span span(trace, SpanKind::kRequest, ++tick_id);
        const std::uint64_t submitted = now_ns();
        origin.assign(batch.size(), submitted);
        serve_cloud_batch(service, batch, origin, r, trace, program, tick_id,
                          [&](std::size_t i, const cloud::PlanTicket& ticket,
                              core::PlannedProfile profile) {
                            if (!ticket.cache_hit) ++r.unexpected_outcomes;
                            if (!first) return;
                            accumulate_quality(r, profile);
                            if (sampler.bernoulli(sample_p)) {
                              r.cloud_samples.push_back(
                                  CloudSample{*batch[i], ticket, profile.nodes()});
                            }
                          });
      }
      if (trace != nullptr && c == 0)
        probe_layers(*trace, probe, demand, tick.front().time_s, tick_id);
    }
    end_ns[c] = now_ns();
  };

  const double cpu_before = process_cpu_s();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  start_ns.store(now_ns(), std::memory_order_release);
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const std::uint64_t end = *std::max_element(end_ns.begin(), end_ns.end());

  RunResult out;
  out.wall_s = static_cast<double>(end - start_ns.load()) * 1e-9;
  out.cpu_s = process_cpu_s() - cpu_before;
  for (RunResult& p : parts) {
    out.attempted += p.attempted;
    out.served += p.served;
    out.thrown += p.thrown;
    out.overloaded += p.overloaded;
    out.unexpected_outcomes += p.unexpected_outcomes;
    out.latency.merge(p.latency);
    out.energy_sum_mah += p.energy_sum_mah;
    out.trip_sum_s += p.trip_sum_s;
    out.quality_n += p.quality_n;
    out.materialized_bytes += p.materialized_bytes;
    for (CloudSample& s : p.cloud_samples) out.cloud_samples.push_back(std::move(s));
  }
  for (auto& t : traces)
    if (t) out.traces.push_back(std::move(t));
  return out;
}

// --- miss_storm -------------------------------------------------------------------

RunResult run_miss_storm(cloud::PlanService& service, const std::vector<ScheduledRequest>& schedule,
                         const std::vector<double>& storm_due_s, bool traced,
                         const core::VelocityPlanner& probe, std::uint64_t sample_seed,
                         const telemetry::Histogram* batch_solve) {
  RunResult r;
  std::unique_ptr<ThreadTrace> trace = traced ? std::make_unique<ThreadTrace>(0) : nullptr;
  const ProgramTime program(batch_solve);
  const auto demand = arterial_demand();
  Rng sampler(sample_seed * 131 + 7);
  // Samples for the oracle: ~24 hits and ~2 members of every storm.
  std::size_t hits = 0;
  std::vector<bool> storm_seen(storm_due_s.size(), false);
  for (const ScheduledRequest& s : schedule) {
    if (s.storm < 0) {
      ++hits;
    } else {
      storm_seen[static_cast<std::size_t>(s.storm)] = true;
    }
  }
  const auto storms = static_cast<double>(std::count(storm_seen.begin(), storm_seen.end(), true));
  const double storm_requests = static_cast<double>(schedule.size() - hits);
  const double hit_p = sample_rate(24.0, hits);
  const double storm_p = storm_requests > 0.0 ? std::min(1.0, 2.0 * storms / storm_requests) : 0.0;

  const auto due_ns = [](std::uint64_t t0, double due_s) {
    return t0 + static_cast<std::uint64_t>(due_s * 1e9);
  };
  std::vector<int> open_storms;  // storms due but not yet drained
  r.storm_drain_ms.assign(storm_due_s.size(), -1.0);

  // CPU of every thread but the dispatcher, plus the dispatcher's serving
  // time: the system's CPU, not the harness's spin-wait.
  const double cpu_before = process_cpu_s() - thread_cpu_s();
  std::uint64_t serving_ns = 0;
  const std::uint64_t t0 = now_ns();
  std::vector<const CloudRequest*> batch;
  std::vector<std::uint64_t> origin;
  std::vector<int> storm_of;
  std::uint64_t tick_id = 0;
  std::size_t i = 0;
  while (i < schedule.size()) {
    std::uint64_t now = now_ns();
    if (due_ns(t0, schedule[i].due_s) > now) {
      // Idle: everything due has been served, so every open storm drained.
      for (int s : open_storms)
        r.storm_drain_ms[static_cast<std::size_t>(s)] =
            static_cast<double>(now - due_ns(t0, storm_due_s[static_cast<std::size_t>(s)])) * 1e-6;
      open_storms.clear();
      wait_until_ns(due_ns(t0, schedule[i].due_s));
      now = now_ns();
    }
    batch.clear();
    origin.clear();
    storm_of.clear();
    for (; i < schedule.size() && due_ns(t0, schedule[i].due_s) <= now; ++i) {
      const ScheduledRequest& s = schedule[i];
      batch.push_back(&s.request);
      origin.push_back(due_ns(t0, s.due_s));
      storm_of.push_back(s.storm);
      r.lag.record(now - origin.back());
      if (s.storm >= 0 &&
          std::find(open_storms.begin(), open_storms.end(), s.storm) == open_storms.end()) {
        // A storm arriving while an earlier one is still undrained: the
        // backlog carries across storms and latency is not a valid reading.
        if (!open_storms.empty()) r.backlog_grew = true;
        open_storms.push_back(s.storm);
      }
    }
    {
      Span span(trace.get(), SpanKind::kRequest, ++tick_id);
      serve_cloud_batch(service, batch, origin, r, trace.get(), program, tick_id,
                        [&](std::size_t k, const cloud::PlanTicket& ticket,
                            core::PlannedProfile profile) {
                          const bool storm = storm_of[k] >= 0;
                          if (ticket.cache_hit == storm) ++r.unexpected_outcomes;
                          accumulate_quality(r, profile);
                          if (sampler.bernoulli(storm ? storm_p : hit_p)) {
                            r.cloud_samples.push_back(
                                CloudSample{*batch[k], ticket, profile.nodes()});
                          }
                        });
    }
    serving_ns += now_ns() - now;
    if (trace) probe_layers(*trace, probe, demand, batch.front()->time_s, tick_id);
  }
  const std::uint64_t end = now_ns();
  for (int s : open_storms)
    r.storm_drain_ms[static_cast<std::size_t>(s)] =
        static_cast<double>(end - due_ns(t0, storm_due_s[static_cast<std::size_t>(s)])) * 1e-6;
  r.wall_s = static_cast<double>(end - t0) * 1e-9;
  r.cpu_s = process_cpu_s() - thread_cpu_s() - cpu_before + static_cast<double>(serving_ns) * 1e-9;
  if (trace) r.traces.push_back(std::move(trace));
  return r;
}

// --- vehicle_replan ---------------------------------------------------------------

RunResult run_vehicle_replan(VehicleSystem& system, const VehicleReplanInput& input,
                             double seconds, std::uint64_t min_requests, bool traced,
                             std::uint64_t sample_seed) {
  RunResult r;
  std::unique_ptr<ThreadTrace> trace = traced ? std::make_unique<ThreadTrace>(0) : nullptr;
  const ProgramTime program(nullptr);
  const core::VelocityPlanner& planner = system.planner;
  const double length = planner.corridor().length();
  const std::size_t window = system.sae.window_hours();
  const auto base_rate = forecast_rate(system.forecast);

  std::size_t warm_total = 0;
  std::size_t cold_total = 0;
  for (const VehicleTrip& v : input.vehicles) {
    cold_total += 1 + v.checkpoints.size();
    for (const Checkpoint& cp : v.checkpoints) warm_total += cp.updates.size();
  }
  const double warm_p = sample_rate(16.0, warm_total);
  const double cold_p = sample_rate(8.0, cold_total);
  Rng sampler(sample_seed * 977 + 5);

  const double cpu_before = process_cpu_s();
  const std::uint64_t t0 = now_ns();
  const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  // A slower host still times enough requests for p99 to have 10 beyond it,
  // within half a window more (the run's time budget).
  const std::uint64_t extended = t0 + static_cast<std::uint64_t>(1.5 * seconds * 1e9);
  const auto more = [&] {
    const std::uint64_t now = now_ns();
    return now < deadline || (r.attempted < min_requests && now < extended);
  };
  std::uint64_t request_id = 0;
  bool first_pass = true;

  // One on-board request: plan (position < 0) or replan of a state.
  const auto request = [&](double position, double speed, double time,
                           const std::shared_ptr<const traffic::ArrivalRateProvider>& rate,
                           bool warm) -> std::optional<core::PlannedProfile> {
    ++request_id;
    ++r.attempted;
    if (trace) probe_layers(*trace, planner, rate, time, request_id);
    std::optional<core::PlannedProfile> profile;
    {
      Span root(trace.get(), SpanKind::kRequest, request_id);
      Span call(trace.get(), SpanKind::kPlannerCall, request_id);
      const ProgramTime::Mark before = program.mark();
      const std::uint64_t start = now_ns();
      try {
        profile = position < 0.0 ? planner.plan(Seconds(time), rate)
                                 : planner.replan(Meters(position), MetersPerSecond(speed),
                                                  Seconds(time), rate);
      } catch (...) {
        ++r.thrown;
      }
      if (profile) r.latency.record(now_ns() - start);
      if (trace) call.cover(program.dp_ns(before));
    }
    if (!profile) return profile;
    ++r.served;
    if (first_pass) {
      accumulate_quality(r, *profile);
      if (sampler.bernoulli(warm ? warm_p : cold_p)) {
        r.vehicle_samples.push_back(VehicleSample{position < 0.0, warm, position, speed, time,
                                                  rate, profile->nodes()});
      }
    }
    return profile;
  };

  while (more()) {
    for (const VehicleTrip& trip : input.vehicles) {
      if (!more()) break;
      std::vector<double> forecast = system.forecast;
      std::shared_ptr<const traffic::ArrivalRateProvider> rate = base_rate;
      std::optional<core::PlannedProfile> current = request(-1.0, 0.0, trip.depart_s, rate, false);
      if (!current) continue;
      for (const Checkpoint& cp : trip.checkpoints) {
        if (!more()) break;
        // The vehicle's state as it reaches the checkpoint, perturbed.
        const double target = cp.fraction * length;
        const auto& nodes = current->nodes();
        const auto at = std::find_if(nodes.begin(), nodes.end(), [&](const core::PlanNode& n) {
          return n.position_m >= target;
        });
        const core::PlanNode& node = at == nodes.end() ? nodes.back() : *at;
        const double position = std::clamp(node.position_m + cp.dpos_m, 0.0, length - 1.0);
        const double speed = std::max(0.0, node.speed_ms + cp.dspeed_ms);
        const double time = node.time_s + cp.dtime_s;
        if (auto replanned = request(position, speed, time, rate, false))
          current = std::move(replanned);

        for (const std::vector<double>& noise : cp.updates) {
          if (!more()) break;
          // Demand-prediction update: fresh detector counts for the last
          // `window` hours feed the SAE, whose forecast replaces the hour's.
          const auto hour = static_cast<std::size_t>(std::floor(time / 3600.0));
          std::vector<double> recent(window);
          for (std::size_t k = 0; k < window; ++k)
            recent[k] = system.actual.at(hour - window + k) * noise[k];
          double predicted = 0.0;
          {
            const Span span(trace.get(), SpanKind::kPredict, request_id + 1);
            predicted = system.sae.predict_next(recent, system.actual.hour_of_day(hour),
                                                system.actual.day_of_week(hour));
          }
          forecast[hour] = predicted / kLaneEquivalents;
          rate = forecast_rate(forecast);
          if (auto warm = request(position, speed, time, rate, true)) current = std::move(warm);
        }
      }
    }
    first_pass = false;
  }
  const std::uint64_t end = now_ns();
  r.wall_s = static_cast<double>(end - t0) * 1e-9;
  r.cpu_s = process_cpu_s() - cpu_before;
  if (trace) r.traces.push_back(std::move(trace));
  return r;
}

}  // namespace fleetbench
