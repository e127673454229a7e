#include "cloud/plan_service.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/clock.hpp"
#include "common/logging.hpp"

namespace evvo::cloud {

namespace {

/// Distinct telemetry namespace per service instance: tests and multi-
/// corridor fleets construct many services, and each one's counters must
/// start at zero for its stats() to mean anything.
int next_service_instance() {
  static std::atomic<int> next{0};
  // The ticket only names this instance's metrics; it orders no memory.
  // evvo-lint: allow(atomics-misuse)
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

double signal_hyperperiod(const std::vector<road::TrafficLight>& lights) {
  long lcm_ds = 0;  // deciseconds
  for (const auto& light : lights) {
    const long cycle_ds = std::lround(light.cycle_duration() * 10.0);
    if (cycle_ds <= 0) throw std::invalid_argument("signal_hyperperiod: non-positive cycle");
    lcm_ds = lcm_ds == 0 ? cycle_ds : std::lcm(lcm_ds, cycle_ds);
  }
  return static_cast<double>(lcm_ds) / 10.0;
}

PlanService::PlanService(core::VelocityPlanner planner,
                         std::shared_ptr<const traffic::ArrivalRateProvider> arrivals,
                         CacheConfig cache)
    : planner_(std::move(planner)), arrivals_(std::move(arrivals)), cache_config_(cache),
      hyperperiod_s_(signal_hyperperiod(planner_.corridor().lights)),
      route_hash_(hash_corridor(planner_.corridor())) {
  // Replan keys quantize position to the solver's own grid (the same
  // rounding solve_dp applies to ds_m).
  const double length = planner_.corridor().length();
  const double n_hops =
      std::max(1.0, std::round(length / planner_.config().resolution.ds_m));
  grid_ds_m_ = length / n_hops;
  if (cache_config_.capacity == 0) throw std::invalid_argument("PlanService: zero cache capacity");
  if (cache_config_.shards == 0) throw std::invalid_argument("PlanService: zero shards");
  if (cache_config_.phase_quantum_s <= 0.0 || cache_config_.demand_quantum_veh_h <= 0.0)
    throw std::invalid_argument("PlanService: quanta must be positive");
  if (cache_config_.ttl_s < 0.0) throw std::invalid_argument("PlanService: negative TTL");
  if (planner_.config().policy == core::SignalPolicy::kQueueAware && !arrivals_)
    throw std::invalid_argument("PlanService: queue-aware planning needs arrival rates");
  shards_.reserve(cache_config_.shards);
  const std::string prefix = "plan_service." + std::to_string(next_service_instance()) + ".";
  for (unsigned s = 0; s < cache_config_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    const std::string sp = prefix + "shard" + std::to_string(s) + ".";
    shard->replans = &telemetry::counter(sp + "replans");
    shard->cache_hits = &telemetry::counter(sp + "cache_hits");
    shard->coalesced_hits = &telemetry::counter(sp + "coalesced_hits");
    shard->flight_waits = &telemetry::counter(sp + "flight_waits");
    shard->solver_runs = &telemetry::counter(sp + "solver_runs");
    shard->evictions = &telemetry::counter(sp + "evictions");
    shard->expirations = &telemetry::counter(sp + "expirations");
    shard->rejections = &telemetry::counter(sp + "rejections");
    shard->queue_depth = &telemetry::gauge(sp + "queue_depth");
    shards_.push_back(std::move(shard));
  }
  ticket_latency_ns_ = &telemetry::histogram(prefix + "ticket_ns", telemetry::Unit::kNanoseconds);
  batch_group_size_ = &telemetry::histogram(prefix + "batch_group_size", telemetry::Unit::kCount);
  batch_solve_ns_ =
      &telemetry::histogram(prefix + "batch_solve_ns", telemetry::Unit::kNanoseconds);
}

PlanService::~PlanService() = default;

ServiceStats PlanService::Shard::snapshot() const {
  ServiceStats out;
  out.replans = replans->value();
  out.cache_hits = cache_hits->value();
  out.coalesced_hits = coalesced_hits->value();
  out.solver_runs = solver_runs->value();
  out.evictions = evictions->value();
  out.expirations = expirations->value();
  out.rejections = rejections->value();
  out.queue_depth = queue_depth->value();
  // Derived, never counted: exact under concurrent readers by construction.
  out.requests = out.cache_hits + out.solver_runs + out.rejections;
  return out;
}

PlanService::CacheKey PlanService::key_for(Seconds depart_time) const {
  const double depart_time_s = depart_time.value();  // .value() seam
  // Checked before the phase is cast to an integer bin (and before anything
  // reaches the planner): every request_* and slot_for_* path keys here. The
  // solver's own clock predicate decides, so a hit is never served at a time
  // (NaN, +-inf, or beyond the float clock) its bin's miss would reject.
  if (!planner_.config().resolution.resolves_clock(depart_time))
    throw std::invalid_argument(
        "PlanService: request time non-finite or beyond the solver's clock");
  double phase = 0.0;
  if (hyperperiod_s_ > 0.0) {
    phase = std::fmod(depart_time_s, hyperperiod_s_);
    if (phase < 0.0) phase += hyperperiod_s_;
  }
  const double demand =
      arrivals_ ? arrivals_->arrival_rate_veh_h(Seconds(depart_time_s)) : 0.0;
  return CacheKey{std::lround(phase / cache_config_.phase_quantum_s),
                  std::lround(demand / cache_config_.demand_quantum_veh_h)};
}

PlanService::CacheKey PlanService::replan_key_for(const ReplanRequest& request) const {
  if (!std::isfinite(request.position_m) || !std::isfinite(request.speed_ms))
    throw std::invalid_argument("PlanService::request_replan: non-finite position or speed");
  if (request.position_m < 0.0 || request.position_m >= planner_.corridor().length())
    throw std::invalid_argument("PlanService::request_replan: position outside the corridor");

  // Segment-memo quantization: snap the state to its bin's grid point. Every
  // request in the bin is served the canonical state's plan (misses solve it,
  // hits time-shift it) - the same approximation the phase and demand bins
  // already make for departures.
  const double dv = planner_.config().resolution.dv_ms;
  const long n_hops = std::lround(planner_.corridor().length() / grid_ds_m_);
  const long layer =
      std::min(std::max(0L, std::lround(request.position_m / grid_ds_m_)), n_hops - 1);
  const long vlevel = std::max(0L, std::lround(request.speed_ms / dv));

  CacheKey key = key_for(Seconds(request.time_s));
  key.layer = layer;
  key.vlevel = vlevel;
  return key;
}

std::size_t PlanService::shard_of(const CacheKey& key) const {
  return shard_index(
      ShardKey{route_hash_, key.phase_bin, key.demand_bin, key.layer, key.vlevel},
      shards_.size());
}

PlanService::Shard& PlanService::shard_for(const CacheKey& key) const {
  return *shards_[shard_of(key)];
}

PlanService::RequestSlot PlanService::slot_for_plan(Seconds depart_time) const {
  const CacheKey key = key_for(depart_time);
  const ShardKey shard_key{route_hash_, key.phase_bin, key.demand_bin, key.layer, key.vlevel};
  return RequestSlot{shard_key, shard_index(shard_key, shards_.size())};
}

PlanService::RequestSlot PlanService::slot_for_replan(Meters position, MetersPerSecond speed,
                                                      Seconds request_time) const {
  const CacheKey key = replan_key_for(
      ReplanRequest{0, position.value(), speed.value(), request_time.value()});
  const ShardKey shard_key{route_hash_, key.phase_bin, key.demand_bin, key.layer, key.vlevel};
  return RequestSlot{shard_key, shard_index(shard_key, shards_.size())};
}

void PlanService::insert_into_cache_locked(Shard& shard, const CacheKey& key,
                                           std::shared_ptr<const core::PlannedProfile> profile,
                                           double reference_time) {
  if (shard.cache.find(key) != shard.cache.end()) return;
  shard.lru.push_front(key);
  shard.cache.emplace(key, CacheEntry{std::move(profile), reference_time, shard.lru.begin()});
  if (shard.cache.size() > cache_config_.capacity) {
    const CacheKey victim = shard.lru.back();
    shard.lru.pop_back();
    shard.cache.erase(victim);
    shard.evictions->add(1);
    EVVO_LOG(kDebug, "plan-service") << "evicted phase bin " << victim.phase_bin;
  }
}

PlanService::ServeState PlanService::begin_serve(const CacheKey& key, int vehicle_id,
                                                 Seconds request_time) {
  const double request_time_s = request_time.value();  // .value() seam
  ServeState state;
  state.shard = &shard_for(key);
  Shard& shard = *state.shard;
  if (key.layer >= 0) shard.replans->add(1);

  common::MutexLock lock(shard.shard_mutex);
  const auto it = shard.cache.find(key);
  if (it != shard.cache.end()) {
    const double age = request_time_s - it->second.reference_time;
    if (cache_config_.ttl_s > 0.0 && age > cache_config_.ttl_s) {
      // Logical-time TTL: the cached demand snapshot is too old to trust,
      // so this request re-solves and becomes the bin's fresh reference.
      shard.lru.erase(it->second.lru_pos);
      shard.cache.erase(it);
      shard.expirations->add(1);
      EVVO_LOG(kDebug, "plan-service") << "expired phase bin " << key.phase_bin;
    } else {
      shard.cache_hits->add(1);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
      state.hit = PlanTicket{vehicle_id, it->second.profile, age, true};
      return state;
    }
  }
  const auto fit = shard.in_flight.find(key);
  if (fit != shard.in_flight.end()) {
    state.flight = fit->second;
    return state;
  }
  if (cache_config_.max_pending_per_shard != 0 &&
      shard.in_flight.size() >= cache_config_.max_pending_per_shard) {
    // Admission control: only would-be leaders are shed. Hits and
    // followers cost no solver time and are always served.
    shard.rejections->add(1);
    throw ServiceOverload("PlanService: shard at max_pending_per_shard, request shed");
  }
  state.flight = std::make_shared<InFlight>();
  shard.in_flight.emplace(key, state.flight);
  state.leader = true;
  // Counted at takeoff so the derived `requests` includes this request
  // even if the solve throws.
  shard.solver_runs->add(1);
  shard.queue_depth->add(1);
  return state;
}

PlanTicket PlanService::publish_leader_result(const CacheKey& key, ServeState& state,
                                              int vehicle_id, Seconds request_time,
                                              std::shared_ptr<const core::PlannedProfile> profile) {
  const double request_time_s = request_time.value();  // .value() seam
  Shard& shard = *state.shard;
  {
    // Publish to the cache and retire the flight atomically: any request
    // arriving from here on hits the cache instead of the flight.
    common::MutexLock lock(shard.shard_mutex);
    insert_into_cache_locked(shard, key, profile, request_time_s);
    shard.in_flight.erase(key);
  }
  shard.queue_depth->sub(1);
  {
    common::MutexLock flight_lock(state.flight->flight_mutex);
    state.flight->profile = profile;
    state.flight->reference_time = request_time_s;
    state.flight->done = true;
  }
  state.flight->completed.notify_all();
  return PlanTicket{vehicle_id, std::move(profile), 0.0, false};
}

void PlanService::publish_leader_error(const CacheKey& key, ServeState& state,
                                       std::exception_ptr error) {
  Shard& shard = *state.shard;
  {
    common::MutexLock lock(shard.shard_mutex);
    shard.in_flight.erase(key);
  }
  shard.queue_depth->sub(1);
  {
    common::MutexLock flight_lock(state.flight->flight_mutex);
    state.flight->error = std::move(error);
    state.flight->done = true;
  }
  state.flight->completed.notify_all();
}

PlanTicket PlanService::wait_follower(ServeState& state, int vehicle_id, Seconds request_time) {
  const double request_time_s = request_time.value();  // .value() seam
  Shard& shard = *state.shard;
  shard.flight_waits->add(1);
  std::optional<PlanTicket> ticket;
  {
    common::MutexLock flight_lock(state.flight->flight_mutex);
    while (!state.flight->done) state.flight->completed.wait(state.flight->flight_mutex);
    if (state.flight->error) std::rethrow_exception(state.flight->error);
    ticket.emplace(PlanTicket{vehicle_id, state.flight->profile,
                              request_time_s - state.flight->reference_time, true});
  }
  shard.cache_hits->add(1);
  shard.coalesced_hits->add(1);
  return std::move(*ticket);
}

core::PlannedProfile PlanService::solve_miss(const BatchItem& item) {
  if (!item.replan) return planner_.plan(Seconds(item.time_s), arrivals_);
  // The miss solves the bin's canonical grid state, not the raw request
  // state, so every member of the bin is served a consistent tail.
  const double dv = planner_.config().resolution.dv_ms;
  return planner_.replan(Meters(static_cast<double>(item.key.layer) * grid_ds_m_),
                         MetersPerSecond(static_cast<double>(item.key.vlevel) * dv),
                         Seconds(item.time_s), arrivals_);
}

PlanTicket PlanService::solve_leader(const BatchItem& item, ServeState& state) {
  try {
    auto profile = std::make_shared<const core::PlannedProfile>(solve_miss(item));
    return publish_leader_result(item.key, state, item.vehicle_id, Seconds(item.time_s),
                                 std::move(profile));
  } catch (...) {
    publish_leader_error(item.key, state, std::current_exception());
    throw;
  }
}

PlanTicket PlanService::serve_item(const BatchItem& item) {
  const telemetry::TraceSpan ticket_span(*ticket_latency_ns_, "plan_service.ticket");
  ServeState state = begin_serve(item.key, item.vehicle_id, Seconds(item.time_s));
  if (state.hit.has_value()) return std::move(*state.hit);
  if (state.leader) return solve_leader(item, state);
  // Follower: coalesce onto the leader's solve.
  return wait_follower(state, item.vehicle_id, Seconds(item.time_s));
}

std::vector<PlanTicket> PlanService::serve_batch(const std::vector<BatchItem>& items) {
  // Group same-key requests (first-occurrence order, so dispatch is
  // deterministic): each group takes one cache transaction, the group's
  // first member runs the single-flight path, every other member reuses its
  // reference profile with a per-request time shift.
  std::map<CacheKey, std::size_t> group_of;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto [it, inserted] = group_of.emplace(items[i].key, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }

  // Phase A - admission: every group's lead goes through the cache/TTL/
  // single-flight/admission-control step first, so the whole batch's misses
  // are known before any solving starts. A shed lead (ServiceOverload) fails
  // only its own group; the rest of the batch is still served and the first
  // error is rethrown at the end.
  std::vector<PlanTicket> out(items.size());
  std::vector<std::optional<PlanTicket>> lead_ticket(groups.size());
  std::vector<std::uint64_t> admitted_ns(telemetry::kEnabled ? groups.size() : 0);
  struct PendingGroup {
    std::size_t group = 0;
    ServeState state;
  };
  std::vector<PendingGroup> leaders;
  std::vector<PendingGroup> followers;
  std::exception_ptr first_error;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    batch_group_size_->record(static_cast<long>(groups[g].size()));
    if constexpr (telemetry::kEnabled) admitted_ns[g] = common::now_ns();
    const BatchItem& lead = items[groups[g].front()];
    try {
      ServeState state = begin_serve(lead.key, lead.vehicle_id, Seconds(lead.time_s));
      if (state.hit.has_value()) {
        lead_ticket[g] = std::move(*state.hit);
      } else if (state.leader) {
        leaders.push_back(PendingGroup{g, std::move(state)});
      } else {
        followers.push_back(PendingGroup{g, std::move(state)});
      }
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }

  // Phase B - leader solves, one after another through the same routine as
  // a single request. Each elected leader reaches an epilogue (publish or
  // error) before the next starts, so followers - ours in phase C, or in
  // concurrent calls - can never hang.
  if (!leaders.empty()) {
    const telemetry::TraceSpan solve_span(*batch_solve_ns_, "plan_service.batch_solve");
    for (PendingGroup& pending : leaders) {
      try {
        lead_ticket[pending.group] = solve_leader(items[groups[pending.group].front()],
                                                  pending.state);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
  }

  // Phase C - followers: their leaders run in concurrent serve calls (our
  // own leaders already completed in phase B, so waiting here cannot
  // deadlock). A leader's failure fails just this group.
  for (PendingGroup& pending : followers) {
    const BatchItem& lead = items[groups[pending.group].front()];
    try {
      lead_ticket[pending.group] = wait_follower(pending.state, lead.vehicle_id, Seconds(lead.time_s));
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }

  // Every group's ticket is ready: one end-to-end sample per group, from its
  // own admission (compiled out with the spans, like the singular path's).
  if constexpr (telemetry::kEnabled) {
    const std::uint64_t done_ns = common::now_ns();
    for (const std::uint64_t t : admitted_ns) ticket_latency_ns_->record(done_ns - t);
  }

  // Phase D - fan out: members derive their tickets from the group lead's.
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (!lead_ticket[g].has_value()) continue;
    const std::vector<std::size_t>& members = groups[g];
    const BatchItem& lead = items[members.front()];
    const PlanTicket& ticket = *lead_ticket[g];
    out[members.front()] = ticket;
    Shard& shard = shard_for(lead.key);
    for (std::size_t m = 1; m < members.size(); ++m) {
      const BatchItem& item = items[members[m]];
      if (item.replan) shard.replans->add(1);
      shard.cache_hits->add(1);
      shard.coalesced_hits->add(1);
      out[members[m]] =
          PlanTicket{item.vehicle_id, ticket.reference,
                     ticket.time_shift_s + (item.time_s - lead.time_s), true};
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return out;
}

PlanTicket PlanService::request_plan_ticket(const PlanRequest& request) {
  return serve_item(BatchItem{key_for(Seconds(request.depart_time_s)), request.vehicle_id,
                              request.depart_time_s, false});
}

PlanTicket PlanService::request_replan_ticket(const ReplanRequest& request) {
  return serve_item(
      BatchItem{replan_key_for(request), request.vehicle_id, request.time_s, true});
}

std::vector<PlanTicket> PlanService::request_plan_tickets(std::span<const PlanRequest> requests) {
  std::vector<BatchItem> items;
  items.reserve(requests.size());
  for (const PlanRequest& request : requests) {
    items.push_back(BatchItem{key_for(Seconds(request.depart_time_s)), request.vehicle_id,
                              request.depart_time_s, false});
  }
  return serve_batch(items);
}

std::vector<PlanTicket> PlanService::request_replan_tickets(
    std::span<const ReplanRequest> requests) {
  std::vector<BatchItem> items;
  items.reserve(requests.size());
  for (const ReplanRequest& request : requests) {
    items.push_back(
        BatchItem{replan_key_for(request), request.vehicle_id, request.time_s, true});
  }
  return serve_batch(items);
}

PlanResponse PlanService::request_plan(const PlanRequest& request) {
  const PlanTicket ticket = request_plan_ticket(request);
  return PlanResponse{ticket.vehicle_id, ticket.materialize(), ticket.cache_hit};
}

PlanResponse PlanService::request_replan(const ReplanRequest& request) {
  const PlanTicket ticket = request_replan_ticket(request);
  return PlanResponse{ticket.vehicle_id, ticket.materialize(), ticket.cache_hit};
}

std::vector<PlanResponse> PlanService::materialize_all(const std::vector<PlanTicket>& tickets) {
  std::vector<PlanResponse> responses;
  responses.reserve(tickets.size());
  for (const PlanTicket& ticket : tickets) {
    responses.push_back(PlanResponse{ticket.vehicle_id, ticket.materialize(), ticket.cache_hit});
  }
  return responses;
}

std::vector<PlanResponse> PlanService::request_plans(std::span<const PlanRequest> requests) {
  return materialize_all(request_plan_tickets(requests));
}

std::vector<PlanResponse> PlanService::request_replans(std::span<const ReplanRequest> requests) {
  return materialize_all(request_replan_tickets(requests));
}

ServiceStats PlanService::stats() const {
  ServiceStats total;
  for (const auto& shard : shards_) {
    const ServiceStats s = shard->snapshot();
    total.requests += s.requests;
    total.replans += s.replans;
    total.cache_hits += s.cache_hits;
    total.coalesced_hits += s.coalesced_hits;
    total.solver_runs += s.solver_runs;
    total.evictions += s.evictions;
    total.expirations += s.expirations;
    total.rejections += s.rejections;
    total.queue_depth += s.queue_depth;
  }
  return total;
}

std::vector<ServiceStats> PlanService::shard_stats() const {
  std::vector<ServiceStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->snapshot());
  return out;
}

}  // namespace evvo::cloud
