// fleet_bench - the end-to-end benchmark of the evvo planning system.
//
//   fleet_bench --workload fleet_hits|miss_storm|vehicle_replan --seed N
//               --seconds S --trace 0|1 [--tiny] [--trace-out FILE]
//
// Builds the served system (set-up, repeated and timed), generates the
// workload's inputs from --seed, drives them for --seconds, checks a seeded
// sample of the served plans against cold solves of fresh planners, and
// prints one JSON result object as the last line of stdout:
//
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {name: {value, unit}}}
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the window in two
// halves, untraced then traced, and reports the per-layer metrics: the
// harness's own spans around each layer call plus the deltas of the
// library's telemetry registry over the traced half. The line before the
// result carries the host/build descriptor and the run summary.
//
// Exit codes: 0 ok, 1 wrong output (or an invalid open-loop run), 2 usage or
// unoptimized build.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench.hpp"
#include "cloud/plan_service.hpp"
#include "common/simd.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "core/dp_batch.hpp"
#include "drivers.hpp"
#include "workloads.hpp"

namespace {

using namespace evvo;
using namespace fleetbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

void usage() {
  std::fprintf(stderr,
               "usage: fleet_bench --workload fleet_hits|miss_storm|vehicle_replan --seed N\n"
               "                   --seconds S --trace 0|1 [--tiny] [--trace-out FILE]\n");
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--tiny") {
      opt.tiny = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) {
      std::fprintf(stderr, "fleet_bench: %s needs a value\n", arg.c_str());
      return false;
    }
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, &end);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0;
      if (!opt.trace && std::strcmp(v, "0") != 0) return false;
    } else if (arg == "--trace-out") {
      opt.trace_out = v;
    } else {
      std::fprintf(stderr, "fleet_bench: unknown argument %s\n", arg.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "fleet_bench: bad value for %s: %s\n", arg.c_str(), v);
      return false;
    }
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
    std::fprintf(stderr, "fleet_bench: --seconds must be in (0, 600]\n");
    return false;
  }
  return true;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool nodes_equal(const std::vector<core::PlanNode>& a, const std::vector<core::PlanNode>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].position_m != b[i].position_m || a[i].speed_ms != b[i].speed_ms ||
        a[i].time_s != b[i].time_s || a[i].energy_mah != b[i].energy_mah)
      return false;
  }
  return true;
}

std::string thp_mode() {
  // The bracketed word of the kernel's setting, e.g. "always [madvise] never".
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  if (!std::getline(in, line)) return "unknown";
  const auto open = line.find('[');
  const auto close = line.find(']');
  return open != std::string::npos && close != std::string::npos && close > open
             ? line.substr(open + 1, close - open - 1)
             : "unknown";
}

// --- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// --- Registry readings ------------------------------------------------------------

/// Registry view after the traced half (the registry was reset at its start,
/// so every value is window-local).
struct Registry {
  telemetry::Snapshot snap = telemetry::snapshot();

  long counter(const std::string& name) const {
    for (const auto& c : snap.counters)
      if (c.name == name) return c.value;
    return 0;
  }
  /// Sum over every shard of one service instance's counter.
  long shard_sum(const std::string& prefix, const std::string& field) const {
    long total = 0;
    for (const auto& c : snap.counters) {
      if (c.name.rfind(prefix + "shard", 0) == 0 && c.name.size() > field.size() &&
          c.name.compare(c.name.size() - field.size() - 1, std::string::npos, "." + field) == 0)
        total += c.value;
    }
    return total;
  }
  const telemetry::Snapshot::HistogramValue* hist(const std::string& name) const {
    for (const auto& h : snap.histograms)
      if (h.name == name) return &h;
    return nullptr;
  }
  double hist_mean_ms(const std::string& name) const {
    const auto* h = hist(name);
    return h != nullptr && h->count > 0 ? static_cast<double>(h->sum) / h->count * 1e-6 : 0.0;
  }
  std::uint64_t hist_count(const std::string& name) const {
    const auto* h = hist(name);
    return h != nullptr ? h->count : 0;
  }
};

/// "plan_service.<N>." of the most recently constructed service.
std::string latest_service_prefix() {
  long best = -1;
  for (const auto& c : telemetry::snapshot().counters) {
    if (c.name.rfind("plan_service.", 0) != 0) continue;
    best = std::max(best, std::strtol(c.name.c_str() + std::strlen("plan_service."), nullptr, 10));
  }
  return "plan_service." + std::to_string(best) + ".";
}

// --- The served systems ------------------------------------------------------------

using KeyTuple = std::tuple<long, long, long, long>;

KeyTuple key_of(const cloud::PlanService& service, const CloudRequest& q) {
  const cloud::PlanService::RequestSlot slot =
      q.replan ? service.slot_for_replan(Meters(q.position_m), MetersPerSecond(q.speed_ms),
                                         Seconds(q.time_s))
               : service.slot_for_plan(Seconds(q.time_s));
  return {slot.key.phase_bin, slot.key.demand_bin, slot.key.layer, slot.key.vlevel};
}

struct CloudSystem {
  std::unique_ptr<cloud::PlanService> service;
  std::string prefix;
  /// Request time at which each key was first served (its cache reference).
  std::map<KeyTuple, double> first_time;
};

/// The cloud set-up: the service, and every hit slot solved into its cache.
std::unique_ptr<CloudSystem> build_cloud_system() {
  auto sys = std::make_unique<CloudSystem>();
  sys->service = std::make_unique<cloud::PlanService>(make_arterial_planner(), arterial_demand(),
                                                      fleet_cache_config());
  std::vector<cloud::PlanRequest> plans;
  std::vector<cloud::ReplanRequest> replans;
  for (const CloudRequest& q : warmup_requests()) {
    sys->first_time.emplace(key_of(*sys->service, q), q.time_s);
    if (q.replan) {
      replans.push_back({q.vehicle, q.position_m, q.speed_ms, q.time_s});
    } else {
      plans.push_back({q.vehicle, q.time_s});
    }
  }
  for (const cloud::PlanTicket& t : sys->service->request_plan_tickets(plans))
    (void)t.materialize();
  for (const cloud::PlanTicket& t : sys->service->request_replan_tickets(replans))
    (void)t.materialize();
  sys->prefix = latest_service_prefix();
  return sys;
}

// --- Correctness ----------------------------------------------------------------------

/// Every sampled served plan against a cold solve of the same canonical
/// request by a fresh planner at the key's first-occurrence time (the
/// evvo_load --check rule): the cached reference must equal it byte for
/// byte, and the materialized nodes must equal it shifted to the request.
long check_cloud(const CloudSystem& sys, const std::vector<CloudSample>& samples) {
  const auto demand = arterial_demand();
  std::map<KeyTuple, core::PlannedProfile> oracle;
  long mismatches = 0;
  for (const CloudSample& s : samples) {
    const CloudRequest& q = s.request;
    const KeyTuple key = key_of(*sys.service, q);
    const auto first = sys.first_time.find(key);
    if (first == sys.first_time.end()) {
      ++mismatches;
      std::fprintf(stderr, "fleet_bench: served key of vehicle %d was never requested\n",
                   q.vehicle);
      continue;
    }
    auto it = oracle.find(key);
    if (it == oracle.end()) {
      const core::VelocityPlanner cold = make_arterial_planner();
      it = oracle
               .emplace(key, q.replan ? cold.replan(Meters(q.position_m),
                                                    MetersPerSecond(q.speed_ms),
                                                    Seconds(first->second), demand)
                                      : cold.plan(Seconds(first->second), demand))
               .first;
    }
    const core::PlannedProfile expected = it->second.time_shifted(q.time_s - first->second);
    const bool ok = nodes_equal(s.ticket.reference->nodes(), it->second.nodes()) &&
                    nodes_equal(s.served, expected.nodes());
    if (!ok) {
      ++mismatches;
      std::fprintf(stderr,
                   "fleet_bench: %s of vehicle %d at t=%.3f differs from the cold-solve oracle\n",
                   q.replan ? "replan" : "plan", q.vehicle, q.time_s);
    }
  }
  return mismatches;
}

long check_vehicle(const std::vector<VehicleSample>& samples, long& warm_checked) {
  long mismatches = 0;
  for (const VehicleSample& s : samples) {
    const core::VelocityPlanner cold = make_us25_planner();
    bool ok = false;
    try {
      const core::PlannedProfile expected =
          s.full_plan ? cold.plan(Seconds(s.time_s), s.rate)
                      : cold.replan(Meters(s.position_m), MetersPerSecond(s.speed_ms),
                                    Seconds(s.time_s), s.rate);
      ok = nodes_equal(s.served, expected.nodes());
    } catch (...) {
    }
    warm_checked += s.warm ? 1 : 0;
    if (!ok) {
      ++mismatches;
      std::fprintf(stderr, "fleet_bench: %s %s at %.1f m differs from a cold solve\n",
                   s.warm ? "warm" : "cold", s.full_plan ? "plan" : "replan", s.position_m);
    }
  }
  return mismatches;
}

/// requests == cache_hits + solver_runs + rejections, the shards sum to the
/// aggregate, and the window's requests are exactly the ones issued.
bool check_stats(const cloud::PlanService& service, const cloud::ServiceStats& before,
                 std::uint64_t issued) {
  const cloud::ServiceStats after = service.stats();
  long shard_requests = 0;
  for (const cloud::ServiceStats& s : service.shard_stats()) shard_requests += s.requests;
  const bool ok = after.requests == after.cache_hits + after.solver_runs + after.rejections &&
                  shard_requests == after.requests &&
                  after.requests - before.requests == static_cast<long>(issued);
  if (!ok) {
    std::fprintf(stderr,
                 "fleet_bench: service stats identity violated (requests %ld, hits %ld, solver "
                 "runs %ld, rejections %ld, shard sum %ld, issued %llu in window)\n",
                 after.requests, after.cache_hits, after.solver_runs, after.rejections,
                 shard_requests, static_cast<unsigned long long>(issued));
  }
  return ok;
}

// --- One run ---------------------------------------------------------------------------

struct Outcome {
  RunResult result;
  long mismatches = 0;
  long warm_checked = 0;
  bool stats_ok = true;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage();
    return 2;
  }
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "fleet_bench: this binary was built without optimization or with assertions on; "
               "it reports no numbers from such a build\n");
  return 2;
#endif
  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& w : workloads())
    if (opt.workload == w.name) info = &w;
  if (info == nullptr) {
    std::fprintf(stderr, "fleet_bench: unknown --workload '%s'\n", opt.workload.c_str());
    usage();
    return 2;
  }
  const Sizes sizes = opt.tiny ? Sizes::tiny() : Sizes{};
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned clients = std::min(nproc, 4u);  // fleet_hits client threads
  const bool cloud_workload = info->id != Workload::kVehicleReplan;

  // Set-up, repeated: the median is setup_s; the last instance is served.
  std::vector<double> setup_s;
  std::vector<double> fit_s;
  std::unique_ptr<CloudSystem> cloud_sys;
  std::unique_ptr<VehicleSystem> vehicle_sys;
  for (unsigned rep = 0; rep < std::max(1u, sizes.setup_repeats); ++rep) {
    cloud_sys.reset();
    vehicle_sys.reset();
    const std::uint64_t start = now_ns();
    if (cloud_workload) {
      cloud_sys = build_cloud_system();
    } else {
      vehicle_sys = build_vehicle_system();
      // Cache warm-up of the on-board planner: its workspace pool.
      (void)vehicle_sys->planner.plan(Seconds(6.0 * 3600.0), forecast_rate(vehicle_sys->forecast));
      fit_s.push_back(vehicle_sys->fit_s);
    }
    setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  const core::VelocityPlanner probe_planner = make_arterial_planner();
  const telemetry::Histogram* batch_solve =
      cloud_workload ? &telemetry::histogram(cloud_sys->prefix + "batch_solve_ns") : nullptr;

  // Inputs, from the seed only.
  FleetHitsInput hits_input;
  MissStormInput storm_input;
  VehicleReplanInput vehicle_input;
  switch (info->id) {
    case Workload::kFleetHits:
      hits_input = make_fleet_hits_input(opt.seed, clients, sizes);
      break;
    case Workload::kMissStorm:
      storm_input = make_miss_storm_input(opt.seed, opt.seconds, sizes);
      for (const ScheduledRequest& s : storm_input.schedule) {
        if (s.storm >= 0)
          cloud_sys->first_time.emplace(key_of(*cloud_sys->service, s.request), s.request.time_s);
      }
      break;
    case Workload::kVehicleReplan:
      vehicle_input = make_vehicle_replan_input(opt.seed, vehicle_sys->sae.window_hours(), sizes);
      break;
  }

  // One timed window over [from_s, to_s) of the inputs.
  const auto run_window = [&](double from_s, double to_s, bool traced) {
    Outcome out;
    const cloud::ServiceStats before =
        cloud_workload ? cloud_sys->service->stats() : cloud::ServiceStats{};
    const std::uint64_t sample_seed = opt.seed * 2 + (traced ? 1 : 0);
    switch (info->id) {
      case Workload::kFleetHits:
        out.result = run_fleet_hits(*cloud_sys->service, hits_input, to_s - from_s, traced,
                                    probe_planner, sample_seed, batch_solve);
        break;
      case Workload::kMissStorm: {
        std::vector<ScheduledRequest> part;
        for (ScheduledRequest s : storm_input.schedule) {
          if (s.due_s < from_s || s.due_s >= to_s) continue;
          s.due_s -= from_s;
          part.push_back(s);
        }
        std::vector<double> storm_due(storm_input.storm_due_s.size(), 0.0);
        for (std::size_t k = 0; k < storm_due.size(); ++k)
          storm_due[k] = storm_input.storm_due_s[k] - from_s;
        out.result = run_miss_storm(*cloud_sys->service, part, storm_due, traced, probe_planner,
                                    sample_seed, batch_solve);
        // Storms outside this window keep their -1 marker; drop them.
        std::vector<double> drains;
        for (double d : out.result.storm_drain_ms)
          if (d >= 0.0) drains.push_back(d);
        out.result.storm_drain_ms = drains;
        break;
      }
      case Workload::kVehicleReplan:
        out.result = run_vehicle_replan(*vehicle_sys, vehicle_input, to_s - from_s,
                                        opt.trace ? 0 : sizes.min_timed_requests, traced,
                                        sample_seed);
        break;
    }
    if (cloud_workload) {
      out.stats_ok = check_stats(*cloud_sys->service, before, out.result.attempted);
    }
    return out;
  };

  Outcome main_run;
  Outcome untraced_half;
  Registry registry;
  if (!opt.trace) {
    main_run = run_window(0.0, opt.seconds, false);
  } else {
    untraced_half = run_window(0.0, opt.seconds / 2, false);
    telemetry::set_trace_capacity(1 << 13);
    telemetry::reset_all();
    main_run = run_window(opt.seconds / 2, opt.seconds, true);
    registry = Registry{};
  }
  RunResult& r = main_run.result;
  const double rss_mb = peak_rss_mb();  // before the oracle's planners allocate

  // Correctness of the served plans (outside every timed window).
  long mismatches = 0;
  long warm_checked = 0;
  std::size_t checked = 0;
  for (Outcome* o : {&untraced_half, &main_run}) {
    if (cloud_workload) {
      o->mismatches = check_cloud(*cloud_sys, o->result.cloud_samples);
      checked += o->result.cloud_samples.size();
    } else {
      o->mismatches = check_vehicle(o->result.vehicle_samples, o->warm_checked);
      checked += o->result.vehicle_samples.size();
    }
    mismatches += o->mismatches;
    warm_checked += o->warm_checked;
  }
  const bool stats_ok = main_run.stats_ok && untraced_half.stats_ok;
  const std::uint64_t failed = r.thrown + r.unexpected_outcomes +
                               static_cast<std::uint64_t>(main_run.mismatches);
  const bool valid_load = !r.backlog_grew && !untraced_half.result.backlog_grew;
  const bool correct = mismatches == 0 && stats_ok && r.thrown == 0 &&
                       r.unexpected_outcomes == 0 && untraced_half.result.thrown == 0 &&
                       untraced_half.result.unexpected_outcomes == 0 && valid_load &&
                       r.served > 0 && (cloud_workload || warm_checked > 0);

  // --- Metrics ---------------------------------------------------------------
  std::vector<Metric> metrics;
  const auto add = [&](const std::string& name, double value, const char* unit) {
    metrics.push_back(Metric{name, value, unit});
  };
  const double attempted = static_cast<double>(std::max<std::uint64_t>(1, r.attempted));
  if (!opt.trace) {
    add("plans_per_s", ratio(static_cast<double>(r.served), r.wall_s), "1/s");
    add("latency_p50_ms", r.latency.percentile_ns(0.50) * 1e-6, "ms");
    add("latency_p99_ms", r.latency.percentile_ns(0.99) * 1e-6, "ms");
    add("served_frac", 1.0 - static_cast<double>(failed) / attempted, "ratio");
    add("plan_energy_mah", ratio(r.energy_sum_mah, static_cast<double>(r.quality_n)), "mAh");
    add("plan_trip_s", ratio(r.trip_sum_s, static_cast<double>(r.quality_n)), "s");
    add("cpu_ms_per_plan", ratio(r.cpu_s * 1e3, static_cast<double>(r.served)), "ms");
    add("peak_rss_mb", rss_mb, "MB");
    add("setup_s", median(setup_s), "s");
  } else {
    // Harness spans, merged over threads.
    std::vector<ThreadTrace::KindStats> kind(static_cast<int>(SpanKind::kCount));
    double root_ns = 0.0;
    for (const auto& t : r.traces) {
      root_ns += t->root_ns();
      for (int k = 0; k < static_cast<int>(SpanKind::kCount); ++k) {
        kind[k].duration.merge(t->stats(static_cast<SpanKind>(k)).duration);
        kind[k].self_ns += t->stats(static_cast<SpanKind>(k)).self_ns;
      }
    }
    const auto span = [&](SpanKind k) -> const ThreadTrace::KindStats& {
      return kind[static_cast<int>(k)];
    };
    const auto span_p = [&](SpanKind k, double p) { return span(k).duration.percentile_ns(p); };
    const auto self_ms = [&](SpanKind k) {
      return ratio(span(k).self_ns * 1e-6, static_cast<double>(span(k).duration.count()));
    };
    const Registry& reg = registry;
    const std::string p = cloud_workload ? cloud_sys->prefix : std::string("plan_service.none.");
    const double hits = static_cast<double>(reg.shard_sum(p, "cache_hits"));
    const double runs = static_cast<double>(reg.shard_sum(p, "solver_runs"));
    const double rejects = static_cast<double>(reg.shard_sum(p, "rejections"));
    const auto* groups = reg.hist(p + "batch_group_size");

    add("cloud.call_ms_p50", span_p(SpanKind::kCloudCall, 0.50) * 1e-6, "ms");
    add("cloud.call_ms_p99", span_p(SpanKind::kCloudCall, 0.99) * 1e-6, "ms");
    add("cloud.self_ms", self_ms(SpanKind::kCloudCall), "ms");
    add("cloud.hit_ratio", ratio(hits, hits + runs + rejects), "ratio");
    add("cloud.group_size_p50", groups != nullptr ? static_cast<double>(groups->p50) : 0.0,
        "count");
    add("cloud.group_size_p99", groups != nullptr ? static_cast<double>(groups->p99) : 0.0,
        "count");
    add("cloud.solver_runs", runs, "count");
    add("cloud.coalesced_hits", static_cast<double>(reg.shard_sum(p, "coalesced_hits")), "count");
    add("cloud.flight_waits", static_cast<double>(reg.shard_sum(p, "flight_waits")), "count");
    add("cloud.rejections", rejects, "count");
    add("cloud.evictions", static_cast<double>(reg.shard_sum(p, "evictions")), "count");
    add("cloud.batch_solve_ms", reg.hist_mean_ms(p + "batch_solve_ns"), "ms");

    add("planner.call_ms_p50", span_p(SpanKind::kPlannerCall, 0.50) * 1e-6, "ms");
    add("planner.call_ms_p99", span_p(SpanKind::kPlannerCall, 0.99) * 1e-6, "ms");
    add("planner.self_ms", self_ms(SpanKind::kPlannerCall), "ms");
    add("planner.build_events_us_p50", span_p(SpanKind::kBuildEvents, 0.50) * 1e-3, "us");

    const double cold = static_cast<double>(reg.hist_count("dp.solve_cold_ns"));
    const double warm_runs = static_cast<double>(reg.hist_count("dp.solve_warm_ns"));
    const double lanes = static_cast<double>(reg.counter("dp.batch.lanes"));
    const double fallback = static_cast<double>(reg.counter("dp.batch.fallback_lanes"));
    const double relax = static_cast<double>(reg.counter("dp.relaxations"));
    const double frontier = static_cast<double>(reg.counter("dp.frontier_states"));
    const double pruned = static_cast<double>(reg.counter("dp.pruned_states"));
    const double spliced = static_cast<double>(reg.counter("dp.replan.spliced"));
    const double stripes = static_cast<double>(reg.counter("dp.replan.stripes"));
    const double replan_cold = static_cast<double>(reg.counter("dp.replan.cold"));
    const double replans = spliced + stripes + replan_cold;
    // A batched SoA lane is a cold solve too; dp.cold_ms stays the K=1 engine's.
    add("dp.cold_solves", cold + lanes, "count");
    add("dp.cold_ms", reg.hist_mean_ms("dp.solve_cold_ns"), "ms");
    add("dp.relaxations", relax, "count");
    add("dp.relaxations_per_solve", ratio(relax, cold + warm_runs + lanes), "count");
    add("dp.pruned_share", ratio(pruned, frontier + pruned), "ratio");
    add("dp.simd_occupancy",
        ratio(static_cast<double>(reg.counter("dp.simd_lanes_used")),
              static_cast<double>(reg.counter("dp.simd_lanes_capacity"))),
        "ratio");
    add("dp.stripe_ms", reg.hist_mean_ms("dp.stripe_relax_ns"), "ms");
    add("dp.warm_solves", spliced + stripes, "count");
    add("dp.warm_ms", reg.hist_mean_ms("dp.solve_warm_ns"), "ms");
    add("dp.replan_spliced_share", ratio(spliced, replans), "ratio");
    add("dp.replan_stripes_share", ratio(stripes, replans), "ratio");
    add("dp.replan_cold_share", ratio(replan_cold, replans), "ratio");

    add("dp_batch.groups", static_cast<double>(reg.counter("dp.batch.groups")), "count");
    add("dp_batch.sweep_ms", reg.hist_mean_ms("dp.batch.sweep_ns"), "ms");
    add("dp_batch.lane_fill", ratio(lanes, static_cast<double>(reg.counter("dp.batch.lane_slots"))),
        "ratio");
    add("dp_batch.fallback_share", ratio(fallback, lanes + fallback), "ratio");

    const double affinity = static_cast<double>(reg.counter("dp.pool.affinity_hits"));
    const double lifo = static_cast<double>(reg.counter("dp.pool.lifo_reuses"));
    const double fresh = static_cast<double>(reg.counter("dp.pool.fresh_allocs"));
    add("pool.affinity_ratio", ratio(affinity, affinity + lifo + fresh), "ratio");
    add("pool.fresh_allocs", fresh, "count");

    add("materialize.us_p50", span_p(SpanKind::kMaterialize, 0.50) * 1e-3, "us");
    add("materialize.mb", r.materialized_bytes * 1e-6, "MB");
    add("traffic.windows_us_p50", span_p(SpanKind::kWindows, 0.50) * 1e-3, "us");
    add("learn.fit_s", median(fit_s), "s");
    add("learn.predict_us", span_p(SpanKind::kPredict, 0.50) * 1e-3, "us");

    add("gen.lag_ms_p99", r.lag.percentile_ns(0.99) * 1e-6, "ms");
    const auto& drains = r.storm_drain_ms;
    add("storm.drain_ms_max",
        drains.empty() ? 0.0 : *std::max_element(drains.begin(), drains.end()), "ms");
    const double thread_wall_ns =
        r.wall_s * 1e9 * static_cast<double>(std::max<std::size_t>(1, r.traces.size()));
    add("trace.unattributed_share", std::max(0.0, 1.0 - ratio(root_ns, thread_wall_ns)), "ratio");
    const double untraced_p50 = untraced_half.result.latency.percentile_ns(0.50);
    add("trace.overhead_share", ratio(r.latency.percentile_ns(0.50), untraced_p50) - 1.0, "ratio");

    if (!opt.trace_out.empty()) {
      std::vector<const ThreadTrace*> traces;
      for (const auto& t : r.traces) traces.push_back(t.get());
      if (!write_trace_file(opt.trace_out, traces))
        std::fprintf(stderr, "fleet_bench: cannot write trace file %s\n", opt.trace_out.c_str());
    }
  }

  // --- Descriptor and summary line, then the result ---------------------------
  const unsigned stripe_threads = common::ThreadPool::resolve_threads(
      cloud_workload ? probe_planner.config().resolution.threads
                     : vehicle_sys->planner.config().resolution.threads);
  std::ostringstream desc;
  desc << "{\"descriptor\": {\"workload\": " << json_string(info->name)
       << ", \"why\": " << json_string(info->why) << ", \"seed\": " << opt.seed
       << ", \"seconds\": " << json_number(opt.seconds) << ", \"trace\": " << (opt.trace ? 1 : 0)
       << ", \"tiny\": " << (opt.tiny ? "true" : "false") << ", \"nproc\": " << nproc
       << ", \"simd\": " << json_string(common::simd::kBackendName)
       << ", \"dp_batch_lanes\": " << core::dp_batch_lanes()
       << ", \"build\": \"release\", \"thp\": " << json_string(thp_mode())
       << ", \"stripe_threads\": " << stripe_threads << ", \"batch_threads\": "
       << (cloud_workload
               ? common::ThreadPool::resolve_threads(fleet_cache_config().batch_threads)
               : 0)
       << ", \"clients\": " << (info->id == Workload::kFleetHits ? clients : 1) << "}"
       << ", \"summary\": {\"served\": " << r.served << ", \"latency_samples\": "
       << r.latency.count() << ", \"failed_frac\": "
       << json_number(static_cast<double>(failed) / attempted) << ", \"thrown\": " << r.thrown
       << ", \"overloaded\": " << r.overloaded << ", \"unexpected_outcomes\": "
       << r.unexpected_outcomes << ", \"oracle_checked\": " << checked
       << ", \"oracle_warm_checked\": " << warm_checked << ", \"oracle_mismatches\": "
       << mismatches << ", \"stats_identity\": " << (stats_ok ? "true" : "false")
       << ", \"quality_plans\": " << r.quality_n
       << ", \"gen_lag_ms_p99\": " << json_number(r.lag.percentile_ns(0.99) * 1e-6)
       << ", \"backlog_grew\": " << (valid_load ? "false" : "true") << ", \"storm_drain_ms\": [";
  for (std::size_t k = 0; k < r.storm_drain_ms.size(); ++k)
    desc << (k > 0 ? ", " : "") << json_number(r.storm_drain_ms[k]);
  desc << "], \"setup_s\": [";
  for (std::size_t k = 0; k < setup_s.size(); ++k)
    desc << (k > 0 ? ", " : "") << json_number(setup_s[k]);
  desc << "]}}";
  std::printf("%s\n", desc.str().c_str());

  std::ostringstream res;
  res << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << r.attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    res << (k > 0 ? ", " : "") << json_string(metrics[k].name) << ": {\"value\": "
        << json_number(metrics[k].value) << ", \"unit\": " << json_string(metrics[k].unit) << "}";
  }
  res << "}}";
  std::printf("%s\n", res.str().c_str());
  std::fflush(stdout);
  if (!valid_load)
    std::fprintf(stderr, "fleet_bench: a storm was still undrained when the next arrived; the "
                         "open-loop latency of this run is not valid\n");
  return correct ? 0 : 1;
}
