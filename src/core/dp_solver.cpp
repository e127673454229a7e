#include "core/dp_solver.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/simd.hpp"
#include "common/telemetry.hpp"
#include "common/units.hpp"
#include "core/dp_common.hpp"
#include "core/dp_replan.hpp"

namespace evvo::core {

namespace {

// Packing, pruning margin, and the route-content hash are shared with the
// reference solver (src/check) through dp_common.hpp.
using detail::hash_route;
using detail::kDwellFlag;
using detail::kNoPred;
using detail::kPruneMargin;
using detail::pack_pred;
using detail::pred_is_dwell;
using detail::pred_j;
using detail::pred_k;

constexpr float kInf = detail::kDpInf;

/// Incumbent schedule of a cold bound-pruned solve: UB = h0 + eps * max(|h0|,
/// kBoundFloorMah) per step, then one unpruned sweep. The floor keeps the
/// schedule growing when the bound at the source is near or below zero.
constexpr double kBoundEps[] = {0.02, 0.08, 0.32};
constexpr double kBoundFloorMah = 10.0;

/// Slack between a pruned state's g + h and UB: covers the float rounding of
/// h's backward sums against the forward sums over a few hundred layers.
float bound_margin(float ub) { return 1e-4f * std::abs(ub) + 0.5f; }

}  // namespace

void DpResolution::validate() const {
  if (!std::isfinite(ds_m) || !std::isfinite(dv_ms) || !std::isfinite(dt_s) ||
      !std::isfinite(horizon_s))
    throw std::invalid_argument("DpResolution: steps must be finite");
  if (ds_m <= 0.0 || dv_ms <= 0.0 || dt_s <= 0.0 || horizon_s <= 0.0)
    throw std::invalid_argument("DpResolution: all steps must be positive");
  if (horizon_s / dt_s > 1e6) throw std::invalid_argument("DpResolution: too many time bins");
}

bool DpResolution::resolves_clock(Seconds time) const {
  const double time_s = time.value();  // .value() seam
  // Arrival times are propagated as float. Once one float step at the end of
  // the trip exceeds a time bin, arrivals can no longer be binned, and a
  // departure rounded below itself would index before bin 0.
  if (!std::isfinite(time_s)) return false;
  const double reach = std::abs(time_s) + horizon_s;
  const double float_step =
      std::ldexp(1.0, std::ilogb(reach) - (std::numeric_limits<float>::digits - 1));
  return float_step <= dt_s;
}

void DpProblem::validate() const {
  if (!route || !energy) throw std::invalid_argument("DpProblem: route and energy model required");
  if (!std::isfinite(depart_time.value()) || !std::isfinite(initial_speed.value()) ||
      !std::isfinite(final_speed.value()))
    throw std::invalid_argument("DpProblem: departure time and boundary speeds must be finite");
  resolution.validate();
  penalty.validate();
  if (!resolution.resolves_clock(depart_time))
    throw std::invalid_argument("DpProblem: departure time too large to resolve one time bin");
}

void DpWorkspace::ensure_model_tables(const road::Route& route, const ev::EnergyModel& energy,
                                      const DpResolution& res, double lambda, double smoothness,
                                      double ds, std::size_t n_hops, std::size_t n_layers,
                                      std::size_t n_v) {
  ModelKey key;
  key.valid = true;
  key.energy = &energy;
  key.route_hash = hash_route(route);
  key.ds_m = res.ds_m;
  key.dv_ms = res.dv_ms;
  key.lambda = lambda;
  key.smoothness = smoothness;
  if (model_key_ == key) return;

  const ev::VehicleParams& vp = energy.params();
  const double a_min = vp.min_acceleration;
  const double a_max = vp.max_acceleration;

  // Feasible hops per source velocity level (kinematics are layer-independent).
  fwd_hops_.clear();
  fwd_begin_.assign(n_v + 1, 0);
  for (std::size_t j = 0; j < n_v; ++j) {
    fwd_begin_[j] = static_cast<std::uint32_t>(fwd_hops_.size());
    const double v = static_cast<double>(j) * res.dv_ms;
    for (std::size_t j2 = 0; j2 < n_v; ++j2) {
      const double v2 = static_cast<double>(j2) * res.dv_ms;
      const double v_mid = 0.5 * (v + v2);
      if (v_mid <= 1e-9) continue;  // no movement; dwells handle waiting
      const double a = (v2 * v2 - v * v) / (2.0 * ds);
      if (a < a_min - 1e-9 || a > a_max + 1e-9) continue;
      fwd_hops_.push_back(FwdHop{static_cast<std::uint32_t>(j2),
                                 static_cast<float>(ds / v_mid), static_cast<float>(a)});
    }
  }
  fwd_begin_[n_v] = static_cast<std::uint32_t>(fwd_hops_.size());

  // Reverse adjacency: hops grouped by destination level, sources ascending
  // (the gather loop must visit sources in the same order as the forward
  // sweep so equal-cost ties resolve to the same predecessor).
  std::vector<std::uint32_t> rev_count(n_v + 1, 0);
  for (const FwdHop& hop : fwd_hops_) ++rev_count[hop.j_to + 1];
  rev_begin_.assign(n_v + 1, 0);
  for (std::size_t j2 = 0; j2 < n_v; ++j2) rev_begin_[j2 + 1] = rev_begin_[j2] + rev_count[j2 + 1];
  rev_hops_.assign(fwd_hops_.size(), RevHop{});
  {
    std::vector<std::uint32_t> fill(rev_begin_.begin(), rev_begin_.end() - 1);
    for (std::size_t j = 0; j < n_v; ++j) {
      for (std::uint32_t h = fwd_begin_[j]; h < fwd_begin_[j + 1]; ++h) {
        const FwdHop& hop = fwd_hops_[h];
        rev_hops_[fill[hop.j_to]++] = RevHop{static_cast<std::uint32_t>(j), hop.dt};
      }
    }
  }

  // Flat, sorted grade-class table. Few grade values exist along a route, so
  // per-class cost tables are shared by all layers of that class.
  std::vector<long> layer_key(n_hops);
  std::vector<double> first_grade;  // representative grade per class (first layer encountered)
  std::vector<long> classes;
  for (std::size_t i = 0; i < n_hops; ++i) {
    const double s_mid = (static_cast<double>(i) + 0.5) * ds;
    layer_key[i] = std::lround(route.grade_at(s_mid) * 1e9);
  }
  classes = layer_key;
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  first_grade.assign(classes.size(), 0.0);
  std::vector<bool> seen(classes.size(), false);
  layer_class_.assign(n_hops, 0);
  for (std::size_t i = 0; i < n_hops; ++i) {
    const auto cls = static_cast<std::size_t>(
        std::lower_bound(classes.begin(), classes.end(), layer_key[i]) - classes.begin());
    layer_class_[i] = static_cast<std::uint32_t>(cls);
    if (!seen[cls]) {
      seen[cls] = true;
      first_grade[cls] = route.grade_at((static_cast<double>(i) + 0.5) * ds);
    }
  }

  // Transition energy [mAh] per (grade class, j, j2), plus the fused variant
  // with lambda*dt and the smoothness regularizer pre-added. The fused table
  // applies the same float-rounding sequence as the step-by-step inner loop,
  // so results are bit-identical to computing the terms per relaxation.
  const std::size_t table_size = n_v * n_v;
  grade_energy_.assign(classes.size() * table_size, kInf);
  grade_fused_.assign(classes.size() * table_size, kInf);
  for (std::size_t cls = 0; cls < classes.size(); ++cls) {
    const double grade = first_grade[cls];
    float* energy_table = grade_energy_.data() + cls * table_size;
    float* fused_table = grade_fused_.data() + cls * table_size;
    for (std::size_t j = 0; j < n_v; ++j) {
      const double v = static_cast<double>(j) * res.dv_ms;
      for (std::uint32_t h = fwd_begin_[j]; h < fwd_begin_[j + 1]; ++h) {
        const FwdHop& hop = fwd_hops_[h];
        const double v2 = static_cast<double>(hop.j_to) * res.dv_ms;
        const double v_mid = 0.5 * (v + v2);
        const double mah =
            ah_to_mah(as_to_ah(
                energy.current_a(MetersPerSecond(v_mid), MetersPerSecondSquared(hop.accel), grade) *
                hop.dt));
        const auto raw = static_cast<float>(mah);
        float fused = raw;
        fused += static_cast<float>(lambda * hop.dt);
        fused += static_cast<float>(smoothness *
                                    std::abs(static_cast<double>(hop.j_to) - static_cast<double>(j)) *
                                    res.dv_ms);
        energy_table[j * n_v + hop.j_to] = raw;
        fused_table[j * n_v + hop.j_to] = fused;
      }
    }
  }

  // Per-layer speed cap (posted limit at the layer's position).
  layer_limit_.resize(n_layers);
  for (std::size_t i = 0; i < n_layers; ++i) {
    layer_limit_[i] = route.speed_limit_at(static_cast<double>(i) * ds);
  }

  model_key_ = key;
}

void DpWorkspace::ensure_state_tables(std::size_t n_layers, std::size_t n_v, std::size_t n_t) {
  // No grid-wide clear per solve: each destination row's span is reset to
  // +inf just before it is relaxed into, and time_/back_ are only ever
  // read behind a finite cost, so stale contents from earlier solves are
  // unreachable. Only fresh memory or a changed row layout needs a fill.
  const std::size_t need = n_layers * n_v * n_t;
  bool fresh = cost_.grow_to(need);
  fresh = time_.grow_to(need) || fresh;
  fresh = back_.grow_to(need) || fresh;
  if (fresh || span_nv_ != n_v || span_nt_ != n_t) {
    span_layers_ = 0;
    span_nv_ = n_v;
    span_nt_ = n_t;
  }
  if (span_layers_ >= n_layers) return;
  std::fill(cost_.data() + span_layers_ * n_v * n_t, cost_.data() + need, kInf);
  span_.resize(std::max(span_.size(), n_layers * n_v));
  std::fill(span_.begin() + static_cast<std::ptrdiff_t>(span_layers_ * n_v),
            span_.begin() + static_cast<std::ptrdiff_t>(n_layers * n_v), RowSpan{});
  span_layers_ = n_layers;
}

namespace detail {

/// One solve over a workspace. Per layer, the live (velocity, time-bin)
/// cells are gathered into a compact source list (costs, times, window
/// membership, and packed backpointers precomputed) and only those are
/// relaxed; destination rows are lazily reset to +inf just before they are
/// relaxed into, so no full-grid clear ever happens.
class DpEngine {
 public:
  DpEngine(const DpProblem& problem, DpWorkspace& ws)
      : problem_(problem), ws_(ws), route_(*problem.route),
        energy_(*problem.energy), res_(problem.resolution) {}

  /// first_relax > 0 is the warm entry (core/dp_replan.hpp): the workspace
  /// must already hold a completed solve of a problem whose inputs to layers
  /// [0, first_relax] are unchanged, so the sweep resumes there instead of
  /// re-seeding layer 0. The caller (solve_dp_incremental) is responsible
  /// for that precondition; everything here stays bit-identical to a cold
  /// run because relax_layer(i) reads only layer i's table and the dwell
  /// re-expansion of an already-expanded layer is a strict-< no-op.
  ///
  /// With bound pruning active, a warm entry whose prefix tables were pruned
  /// under incumbent `prefix_ub` (+inf: unpruned prefix) resumes under the
  /// same UB if the prefix's bound rows are unchanged, else - or if that
  /// sweep does not certify - it re-solves cold over the incumbent schedule.
  std::optional<DpSolution> run(std::size_t first_relax, float prefix_ub = kInf);

  /// Incumbent of the accepted sweep (+inf: unpruned); a warm resume over
  /// the tables this run left behind must reuse it.
  float accepted_ub() const { return accepted_ub_; }
  /// A warm entry that had to re-solve from layer 0.
  bool fell_back_cold() const { return fell_back_cold_; }

  /// Checksum of the state tables a previous run left in `ws` (splice path:
  /// serving a cached solution to a caller that newly asks for checksums).
  static std::uint64_t table_checksum_of(const DpWorkspace& ws, std::size_t n_layers,
                                         std::size_t n_v, std::size_t n_t) {
    return detail::checksum_state_tables(n_layers, n_v, n_t, ws.cost_.data(), ws.time_.data(),
                                         ws.back_.data());
  }

 private:
  using Fwd = DpWorkspace::FwdHop;
  using Rev = DpWorkspace::RevHop;

  void setup(std::size_t first_relax);
  std::optional<DpSolution> solve(std::size_t first_relax, float prefix_ub);
  void compute_bound();
  /// One sweep from first_relax, bound-pruned under `ub` (+inf: no bound
  /// pruning). std::nullopt: infeasible, or optimum above `ub` (uncertified).
  std::optional<DpSolution> sweep(std::size_t first_relax, float ub);
  bool relax_layer(std::size_t i);  // false: layer empty, solve infeasible
  void relax_rows(std::size_t i);   // layer i's gathered sources into layer i + 1
  std::optional<DpSolution> extract_solution();

  std::size_t cell_of(std::size_t j, std::size_t k) const { return j * n_t_ + k; }
  /// +inf-fills row (i, j)'s live span and empties it.
  void reset_row(std::size_t i, std::size_t j) {
    DpWorkspace::RowSpan& span = ws_.span_[i * n_v_ + j];
    float* row = ws_.cost_.data() + i * layer_size_ + j * n_t_;
    std::fill(row + span.lo, row + span.hi, kInf);
    span = DpWorkspace::RowSpan{};
  }

  const DpProblem& problem_;
  DpWorkspace& ws_;
  const road::Route& route_;
  const ev::EnergyModel& energy_;
  const DpResolution& res_;

  // Grid geometry.
  std::size_t n_hops_ = 0, n_layers_ = 0, n_v_ = 0, n_t_ = 0, layer_size_ = 0;
  double ds_ = 0.0;
  std::size_t j_source_ = 0, j_dest_ = 0;

  double lambda_ = 0.0, idle_mah_s_ = 0.0;
  float idle_step_cost_ = 0.0f;
  /// Vector relaxation kernel enabled (compiled backend has lanes AND the
  /// resolution asks for it). Either value is bit-identical (see header).
  bool use_simd_ = false;
  /// 1 / dt_s when dt_s is a power of two (incl. the default 1.0), else 0.
  /// Multiplying by an exact power-of-two reciprocal is bit-identical to the
  /// division and far cheaper in the time-binning hot path.
  double inv_dt_ = 0.0;
  /// Smallest float arrival time whose double-precision elapsed time reaches
  /// the horizon (see run()); lets the vector kernel do the horizon check as
  /// a single float compare.
  float over_thresh_f_ = std::numeric_limits<float>::infinity();
  std::vector<const LayerEvent*> event_at_;
  /// Last layer whose crossing is checked against enforced windows; states
  /// strictly past it face only time-independent costs, enabling dominance
  /// pruning. -1 when no window is enforced anywhere.
  std::ptrdiff_t last_window_layer_ = -1;
  std::vector<float> smooth_by_diff_;  ///< smoothness cost per |j2 - j|
  /// UB + margin of the current sweep; +inf when it does not bound-prune.
  float prune_thresh_ = kInf;
  float accepted_ub_ = kInf;
  bool fell_back_cold_ = false;

  DpStats stats_;
};

std::optional<DpSolution> DpEngine::run(std::size_t first_relax, float prefix_ub) {
  // Cold solves (full sweep) and warm resumes (replan suffix) land in
  // separate histograms: their latency distributions differ by orders of
  // magnitude and a merged percentile would describe neither. A certified
  // bound-pruned solve is one sample however many sweeps it took.
  static telemetry::Histogram& cold_hist = telemetry::histogram("dp.solve_cold_ns");
  static telemetry::Histogram& warm_hist = telemetry::histogram("dp.solve_warm_ns");
  const bool cold = first_relax == 0;
  const telemetry::TraceSpan solve_span(cold ? cold_hist : warm_hist,
                                        cold ? "dp.solve_cold" : "dp.solve_warm");

  // Any engine run - warm, cold, throwing, or infeasible - invalidates every
  // previous-solve snapshot other solvers hold against this workspace.
  ++ws_.solve_serial_;
  setup(first_relax);
  std::optional<DpSolution> out = solve(first_relax, prefix_ub);

  // Fleet-level work counters (registry only, never DpStats: the stats struct
  // is part of the SIMD-vs-scalar bit-identity contract). Pushed even for
  // infeasible sweeps - the work was still done.
  static telemetry::Counter& relax_ctr = telemetry::counter("dp.relaxations");
  static telemetry::Counter& frontier_ctr = telemetry::counter("dp.frontier_states");
  static telemetry::Counter& pruned_ctr = telemetry::counter("dp.pruned_states");
  static telemetry::Counter& bound_pruned_ctr = telemetry::counter("dp.bound_pruned_states");
  static telemetry::Counter& bound_attempts_ctr = telemetry::counter("dp.bound_attempts");
  relax_ctr.add(static_cast<long>(stats_.relaxations));
  frontier_ctr.add(static_cast<long>(stats_.frontier_states));
  pruned_ctr.add(static_cast<long>(stats_.pruned_states));
  bound_pruned_ctr.add(static_cast<long>(stats_.bound_pruned_states));
  bound_attempts_ctr.add(static_cast<long>(stats_.bound_attempts));
  return out;
}

std::optional<DpSolution> DpEngine::solve(std::size_t first_relax, float prefix_ub) {
  // The bound ignores dwells and stop-sign charges, which is sound only while
  // idling costs nothing negative.
  if (!problem_.bound_pruning || idle_mah_s_ < 0.0) return sweep(first_relax, kInf);

  std::swap(ws_.bound_, ws_.bound_prev_);
  compute_bound();
  const float h0 = ws_.bound_[j_source_];
  stats_.bound_mah = static_cast<double>(h0);
  if (h0 >= kInf) return std::nullopt;  // the destination is unreachable even unconstrained

  if (first_relax > 0 && prefix_ub < kInf) {
    // The prefix tables were pruned with the previous bound's rows
    // [0, first_relax) under prefix_ub: a resume under the same rows and UB
    // is the sweep a cold run under that UB would make.
    const std::size_t rows = first_relax * n_v_;
    const bool same_rows = ws_.bound_prev_.size() >= rows &&
                           std::memcmp(ws_.bound_prev_.data(), ws_.bound_.data(),
                                       rows * sizeof(float)) == 0;
    if (same_rows) {
      ++stats_.bound_attempts;
      if (std::optional<DpSolution> out = sweep(first_relax, prefix_ub)) return out;
    }
    first_relax = 0;
    fell_back_cold_ = true;
  }
  // An unpruned prefix is compatible with any UB, so a warm entry from one
  // keeps its first_relax through the schedule.
  const double scale = std::max(std::abs(static_cast<double>(h0)), kBoundFloorMah);
  for (const double eps : kBoundEps) {
    ++stats_.bound_attempts;
    const auto ub = static_cast<float>(static_cast<double>(h0) + eps * scale);
    if (std::optional<DpSolution> out = sweep(first_relax, ub)) return out;
  }
  ++stats_.bound_attempts;
  return sweep(first_relax, kInf);
}

void DpEngine::setup(std::size_t first_relax) {
  // Grid geometry. The distance step is adjusted so layers divide the route
  // length exactly.
  n_hops_ = static_cast<std::size_t>(std::max(1.0, std::round(route_.length() / res_.ds_m)));
  ds_ = route_.length() / static_cast<double>(n_hops_);
  n_layers_ = n_hops_ + 1;
  n_v_ = static_cast<std::size_t>(std::floor(route_.max_speed_limit() / res_.dv_ms)) + 1;
  n_t_ = static_cast<std::size_t>(std::ceil(res_.horizon_s / res_.dt_s)) + 1;
  layer_size_ = n_v_ * n_t_;
  if (n_v_ >= (1u << 11) || n_t_ >= (1u << 20))
    throw std::invalid_argument("solve_dp: grid too large for backpointer packing");

  // Per-layer event lookup.
  event_at_.assign(n_layers_, nullptr);
  last_window_layer_ = -1;
  for (const LayerEvent& e : problem_.events) {
    if (e.layer >= n_layers_) throw std::invalid_argument("solve_dp: event layer out of range");
    event_at_[e.layer] = &e;
    if (e.type == LayerEvent::Type::kSignal && e.enforce_windows) {
      last_window_layer_ = std::max(last_window_layer_, static_cast<std::ptrdiff_t>(e.layer));
    }
  }

  // Idle cost plus the explicit value of time (see DpProblem); both apply to
  // every second whether driving or waiting.
  lambda_ = problem_.time_weight_mah_per_s;
  idle_mah_s_ = ah_to_mah(as_to_ah(energy_.accessory_current_a())) + lambda_;
  idle_step_cost_ = static_cast<float>(idle_mah_s_ * res_.dt_s);

  int dt_exp = 0;
  inv_dt_ = std::frexp(res_.dt_s, &dt_exp) == 0.5 ? 1.0 / res_.dt_s : 0.0;

  use_simd_ = common::simd::kHasSimd && res_.simd;

  // Exact float image of the horizon test. The scalar relaxation checks
  // `(double)arrive - depart >= horizon`; that predicate is monotone in the
  // float `arrive`, so it equals `arrive >= T` for the smallest float T that
  // satisfies it. The vector kernel then tests the horizon with one float
  // compare and no widening, bit-identically. T is found by an exact
  // ulp-walk from the rounded seed (at most a few steps).
  {
    const double depart = problem_.depart_time.value();
    const double horizon = res_.horizon_s;
    const auto over = [&](float a) { return static_cast<double>(a) - depart >= horizon; };
    constexpr float kFInf = std::numeric_limits<float>::infinity();
    float t = static_cast<float>(horizon + depart);
    if (std::isnan(t)) t = kFInf;
    while (!over(t)) t = std::nextafterf(t, kFInf);
    for (float p = std::nextafterf(t, -kFInf); over(p); p = std::nextafterf(t, -kFInf)) t = p;
    over_thresh_f_ = t;
  }

  smooth_by_diff_.resize(n_v_);
  for (std::size_t d = 0; d < n_v_; ++d) {
    smooth_by_diff_[d] = static_cast<float>(problem_.smoothness_weight_mah_per_ms *
                                            static_cast<double>(d) * res_.dv_ms);
  }

  // Boundary velocity levels (Eq. 7d by default; replans may start moving).
  const auto snap_level = [&](double v) {
    const auto j = static_cast<std::size_t>(std::lround(v / res_.dv_ms));
    if (j >= n_v_) throw std::invalid_argument("solve_dp: boundary speed above the velocity grid");
    return j;
  };
  j_source_ = snap_level(problem_.initial_speed.value());
  j_dest_ = snap_level(problem_.final_speed.value());

  ws_.ensure_model_tables(route_, energy_, res_, problem_.time_weight_mah_per_s,
                          problem_.smoothness_weight_mah_per_ms, ds_, n_hops_, n_layers_, n_v_);
  ws_.ensure_state_tables(n_layers_, n_v_, n_t_);

  if (first_relax >= n_layers_) throw std::invalid_argument("solve_dp: first_relax out of range");

  stats_ = DpStats{};
  stats_.layers = n_layers_;
  stats_.velocity_levels = n_v_;
  stats_.time_bins = n_t_;
}

void DpEngine::compute_bound() {
  // Backward sweep over (layer, velocity): h[i][j] is the cheapest
  // completion from velocity j at layer i over the same hops, speed limits,
  // stop-sign and terminal-speed rules as the forward relaxation, with every
  // hop charged its cheapest possible cost (in or out of T_q). Windows,
  // dwells, stop-sign charges and the horizon only add cost or remove
  // states, so h never exceeds a true cost-to-go and is consistent.
  const std::size_t n_v = n_v_;
  ws_.bound_.assign(n_layers_ * n_v, kInf);
  float* h = ws_.bound_.data();
  h[(n_layers_ - 1) * n_v + j_dest_] = 0.0f;
  for (std::size_t i = n_layers_ - 1; i-- > 0;) {
    const LayerEvent* event = event_at_[i];
    const bool is_sign = event && event->type == LayerEvent::Type::kStopSign;
    const bool check_windows =
        event && event->type == LayerEvent::Type::kSignal && event->enforce_windows;
    const double next_limit = ws_.layer_limit_[i + 1];
    const std::size_t table_base = static_cast<std::size_t>(ws_.layer_class_[i]) * n_v * n_v;
    const float* energy_table = ws_.grade_energy_.data() + table_base;
    const float* fused_table = ws_.grade_fused_.data() + table_base;
    const float* h_next = h + (i + 1) * n_v;
    float* h_row = h + i * n_v;
    for (std::size_t j = 0; j < (is_sign ? 1 : n_v); ++j) {
      float best = kInf;
      for (std::uint32_t f = ws_.fwd_begin_[j]; f < ws_.fwd_begin_[j + 1]; ++f) {
        const Fwd hop = ws_.fwd_hops_[f];
        const std::size_t j2 = hop.j_to;
        if (static_cast<double>(j2) * res_.dv_ms > next_limit + 1e-9) continue;
        if (h_next[j2] >= kInf) continue;
        float hop_cost = fused_table[j * n_v + j2];
        if (check_windows) {
          const auto raw = static_cast<double>(energy_table[j * n_v + j2]);
          hop_cost = std::min(static_cast<float>(penalized_cost(problem_.penalty, raw, true)),
                              static_cast<float>(penalized_cost(problem_.penalty, raw, false)));
          hop_cost += static_cast<float>(lambda_ * hop.dt);
          hop_cost += smooth_by_diff_[j2 >= j ? j2 - j : j - j2];
        }
        best = std::min(best, hop_cost + h_next[j2]);
      }
      h_row[j] = best;
    }
  }
  if (problem_.bound_fault_inflation != 1.0) {
    const auto excess = static_cast<float>(problem_.bound_fault_inflation - 1.0);
    for (float& value : ws_.bound_) {
      if (value < kInf) value += excess * std::abs(value);
    }
  }
}

std::optional<DpSolution> DpEngine::sweep(std::size_t first_relax, float ub) {
  const bool faulty = problem_.bound_fault_inflation != 1.0;
  prune_thresh_ = ub < kInf ? ub + (faulty ? 0.0f : bound_margin(ub)) : kInf;

  // Source state at the departure time (layer 0 cleared first: its source
  // scan visits every row). A warm run resumes mid-sweep: layers up to and
  // including first_relax already hold the previous solve's bits.
  if (first_relax == 0) {
    for (std::size_t j = 0; j < n_v_; ++j) reset_row(0, j);
    const std::size_t id = cell_of(j_source_, 0);  // layer 0 base is 0
    ws_.cost_[id] = 0.0f;
    ws_.time_[id] = static_cast<float>(problem_.depart_time.value());
    ws_.back_[id] = kNoPred;
    ws_.span_[j_source_] = DpWorkspace::RowSpan{0, 1};
  }

  for (std::size_t i = first_relax; i + 1 < n_layers_; ++i) {
    if (!relax_layer(i)) return std::nullopt;
  }

  std::optional<DpSolution> out = extract_solution();
  if (!out || static_cast<float>(out->stats.best_cost_mah) > ub) return std::nullopt;
  accepted_ub_ = ub;
  if (problem_.checksum_tables) {
    // Every cost outside a row's live span is +inf (fresh tables are filled,
    // and every reset clears the span it empties), so the finite-cell scan
    // never reads stale cost values.
    out->stats.table_checksum = detail::checksum_state_tables(
        n_layers_, n_v_, n_t_, ws_.cost_.data(), ws_.time_.data(), ws_.back_.data());
  }
  return out;
}

bool DpEngine::relax_layer(std::size_t i) {
  const std::size_t base = i * layer_size_;
  const LayerEvent* event = event_at_[i];
  const bool is_sign = event && event->type == LayerEvent::Type::kStopSign;
  const bool is_signal = event && event->type == LayerEvent::Type::kSignal;
  float* layer_cost = ws_.cost_.data() + base;
  float* layer_time = ws_.time_.data() + base;

  // Dwell expansion: waiting in place at v = 0 (time bins ascending so
  // chains of waits propagate within the layer).
  DpWorkspace::RowSpan& stop_span = ws_.span_[i * n_v_];
  for (std::size_t k = stop_span.lo; k + 1 < n_t_ && k < stop_span.hi; ++k) {
    if (layer_cost[k] >= kInf) continue;
    const float new_cost = layer_cost[k] + idle_step_cost_;
    if (new_cost < layer_cost[k + 1]) {
      layer_cost[k + 1] = new_cost;
      layer_time[k + 1] = layer_time[k] + static_cast<float>(res_.dt_s);
      ws_.back_[base + k + 1] = pack_pred(0, k, /*dwell=*/true);
      stop_span.hi = std::max(stop_span.hi, static_cast<std::uint32_t>(k + 2));
    }
  }

  // Source gather: one row-major scan over the layer's live cells, emitting
  // compact per-source arrays (cost with the mandatory stop-sign charge
  // folded in, crossing time, window membership, packed backpointer) so the
  // relaxation below is pure sequential loads. The float additions mirror
  // the naive per-relaxation arithmetic exactly. Past the last enforced
  // window, dominated states are dropped during the same scan: continuous
  // times ascend with the bin inside a row, so a running minimum finds every
  // earlier-and-cheaper dominator. At a stop-sign layer only standstill
  // states may proceed, so the moving rows are dropped outright. Under bound
  // pruning a state whose cost plus its row's cost-to-go bound exceeds the
  // sweep's threshold is dropped first (prune_thresh_ is +inf otherwise, and
  // the row bound 0, so the test never fires).
  const float dwell_f = is_sign ? static_cast<float>(event->dwell_s) : 0.0f;
  const float extra_f = is_sign ? static_cast<float>(idle_mah_s_ * event->dwell_s) : 0.0f;
  const bool check_windows = is_signal && event->enforce_windows;
  const bool prune =
      problem_.dominance_pruning && static_cast<std::ptrdiff_t>(i) > last_window_layer_;
  const float* bound_row = prune_thresh_ < kInf ? ws_.bound_.data() + i * n_v_ : nullptr;
  ws_.row_begin_.assign(n_v_ + 1, 0);
  const std::size_t j_end = is_sign ? 1 : n_v_;
  // Indexed writes into capacity-sized arrays instead of push_back: the
  // four size bumps per kept state are measurable at frontier scale, and the
  // window-membership column is only consulted by the relaxation when
  // check_windows is set, so ordinary layers skip writing it entirely.
  {
    const std::size_t cap = j_end * n_t_ + common::simd::VecF::kWidth;
    if (ws_.src_pred_.size() < cap) {
      ws_.src_pred_.resize(cap);
      ws_.src_cost_.resize(cap);
      ws_.src_time_.resize(cap);
      ws_.src_inside_.resize(cap);
    }
  }
  std::uint32_t* const out_pred = ws_.src_pred_.data();
  float* const out_cost = ws_.src_cost_.data();
  float* const out_time = ws_.src_time_.data();
  std::uint8_t* const out_inside = ws_.src_inside_.data();
  std::uint32_t n = 0;
  for (std::size_t j = 0; j < j_end; ++j) {
    ws_.row_begin_[j] = n;
    const float* row_cost = layer_cost + j * n_t_;
    const float* row_time = layer_time + j * n_t_;
    float row_min = kInf;
    const bool prune_row = prune && j >= 1;
    const float row_bound = bound_row ? bound_row[j] : 0.0f;
    const DpWorkspace::RowSpan span = ws_.span_[i * n_v_ + j];
    if (!check_windows && !is_sign) {
      // Hot variant: no dwell, no window membership; arithmetic is the
      // same `c0 + extra_f` (extra_f == 0 here) so table bits cannot move.
      for (std::size_t k = span.lo; k < span.hi; ++k) {
        const float c0 = row_cost[k];
        if (c0 >= kInf) continue;
        if (c0 + row_bound > prune_thresh_) {
          ++stats_.bound_pruned_states;
          continue;
        }
        if (prune_row) {
          if (c0 > row_min + kPruneMargin) {
            ++stats_.pruned_states;
            continue;
          }
          row_min = std::min(row_min, c0);
        }
        out_pred[n] = pack_pred(j, k, /*dwell=*/false);
        out_cost[n] = c0 + extra_f;
        out_time[n] = row_time[k];
        ++n;
      }
      continue;
    }
    for (std::size_t k = span.lo; k < span.hi; ++k) {
      const float c0 = row_cost[k];
      if (c0 >= kInf) continue;
      if (c0 + extra_f + row_bound > prune_thresh_) {
        ++stats_.bound_pruned_states;
        continue;
      }
      if (prune_row) {
        if (c0 > row_min + kPruneMargin) {
          ++stats_.pruned_states;
          continue;
        }
        row_min = std::min(row_min, c0);
      }
      float t0 = row_time[k];
      if (is_sign) t0 += dwell_f;  // mandatory standstill before proceeding (Eq. 7c + dwell)
      out_pred[n] = pack_pred(j, k, /*dwell=*/false);
      out_cost[n] = c0 + extra_f;
      out_time[n] = t0;
      out_inside[n] =
          check_windows ? (in_any_window(event->windows, static_cast<double>(t0)) ? 1 : 0) : 1;
      ++n;
    }
  }
  for (std::size_t j = j_end; j <= n_v_; ++j) {
    ws_.row_begin_[j] = n;
  }
  const std::size_t n_src = n;
  stats_.frontier_states += n_src;
  // An empty layer can never be recovered from (later layers are fed only
  // from here), so the solve is infeasible and the sweep stops; stopping
  // before the relaxation also keeps the next layer's rows from being read
  // uninitialized.
  if (n_src == 0) return false;

  // Sentinel padding: the vector kernel loads full VecF-width chunks, so the
  // last row's final chunk may read up to kWidth-1 entries past the list.
  // +inf times make those lanes permanently over-horizon (never scattered);
  // row_begin_ is already final, so no row sees them as sources. Appended
  // after the frontier stats so counters stay identical to the scalar build
  // (kWidth == 1 appends nothing).
  for (std::size_t p = 0; p + 1 < common::simd::VecF::kWidth; ++p) {
    out_pred[n] = 0;
    out_cost[n] = std::numeric_limits<float>::infinity();
    out_time[n] = std::numeric_limits<float>::infinity();
    out_inside[n] = 1;
    ++n;
  }

  relax_rows(i);
  return true;
}

void DpEngine::relax_rows(std::size_t i) {
  // Wall time of one layer's relaxation, one sample per relaxed layer. The
  // metric keeps the name it had when layers relaxed in stripes; the fleet
  // benchmark reads it under that name.
  static telemetry::Histogram& relax_hist = telemetry::histogram("dp.stripe_relax_ns");
  const telemetry::TraceSpan relax_span(relax_hist, "dp.stripe_relax");

  const LayerEvent* event = event_at_[i];
  const bool is_sign = event && event->type == LayerEvent::Type::kStopSign;
  const bool is_signal = event && event->type == LayerEvent::Type::kSignal;
  const bool check_windows = is_signal && event->enforce_windows;
  const LayerEvent* next_event = event_at_[i + 1];
  const bool next_is_sign = next_event && next_event->type == LayerEvent::Type::kStopSign;
  const bool next_is_dest = (i + 1 == n_layers_ - 1);
  const double next_limit = ws_.layer_limit_[i + 1];
  const double depart = problem_.depart_time.value();
  const double horizon = res_.horizon_s;
  const double dt_s = res_.dt_s;
  const double inv_dt = inv_dt_;
  const std::size_t table_base = static_cast<std::size_t>(ws_.layer_class_[i]) * n_v_ * n_v_;
  const float* energy_table = ws_.grade_energy_.data() + table_base;
  const float* fused_table = ws_.grade_fused_.data() + table_base;

  const std::size_t next_base = (i + 1) * layer_size_;
  float* cost = ws_.cost_.data() + next_base;
  float* time = ws_.time_.data() + next_base;
  std::uint32_t* back = ws_.back_.data() + next_base;
  std::size_t relaxations = 0;
  std::size_t simd_chunks = 0;       // vector iterations taken this layer
  std::size_t simd_lanes_used = 0;   // lanes that survived the stop mask

  // Loop invariants of the vector kernel, hoisted: rows can be short, so
  // per-hop setup cost is visible. (Cheap no-ops on the scalar backend.)
  namespace sd = common::simd;
  constexpr auto W = static_cast<std::uint32_t>(sd::VecF::kWidth);
  constexpr auto Dw = static_cast<std::uint32_t>(sd::VecD::kWidth);
  constexpr unsigned full = (1u << W) - 1u;
  const bool vec_path = use_simd_ && !check_windows;
  const bool use_inv = inv_dt != 0.0;
  const sd::VecF v_thresh = sd::VecF::broadcast(over_thresh_f_);
  const sd::VecD v_depart = sd::VecD::broadcast(depart);
  const sd::VecD v_scale = sd::VecD::broadcast(use_inv ? inv_dt : dt_s);
  float arrive_buf[W];
  float cost_buf[W];
  std::int32_t k2_buf[2 * Dw];  // == W on vector backends; 2 on scalar (dead path)

  // Lazy reset: clear the live spans of layer i + 1's rows before relaxing
  // into them, then record the span each row's writes cover. (No memset:
  // +inf is not a repeated-byte pattern.)
  for (std::size_t j2 = 0; j2 < n_v_; ++j2) reset_row(i + 1, j2);

  for (std::size_t j2 = 0; j2 < n_v_; ++j2) {
    std::uint32_t span_lo = static_cast<std::uint32_t>(n_t_), span_hi = 0;
    const auto cover = [&span_lo, &span_hi](std::size_t k2) {
      span_lo = std::min(span_lo, static_cast<std::uint32_t>(k2));
      span_hi = std::max(span_hi, static_cast<std::uint32_t>(k2 + 1));
    };
    const double v2 = static_cast<double>(j2) * res_.dv_ms;
    if (v2 > next_limit + 1e-9) continue;
    if (next_is_sign && j2 != 0) continue;       // stop signs: arrive stopped
    if (next_is_dest && j2 != j_dest_) continue;  // terminal speed constraint
    for (std::uint32_t h = ws_.rev_begin_[j2]; h < ws_.rev_begin_[j2 + 1]; ++h) {
      const Rev hop = ws_.rev_hops_[h];
      const std::size_t j = hop.j_from;
      if (is_sign && j != 0) continue;  // stop signs are left from standstill
      if (ws_.row_begin_[j] == ws_.row_begin_[j + 1]) continue;  // no live source
      const float fused = fused_table[j * n_v_ + j2];
      const float raw = energy_table[j * n_v_ + j2];
      const float lambda_dt = static_cast<float>(lambda_ * hop.dt);
      const float smooth_f =
          smooth_by_diff_[j2 >= j ? j2 - j : j - j2];
      if (vec_path) {
        // Vector relaxation, kWidth sources per step. Every arithmetic step
        // is the scalar sequence applied lane-wise (float add for the
        // arrival, the exact float image of the horizon test, widen-to-double
        // subtract for the elapsed time, the same *inv_dt-or-/dt binning,
        // float add for the candidate cost), and the strict-< scatter below
        // runs scalar in ascending source order, so tie-breaking, stats, and
        // tables match the scalar path bit for bit.
        const sd::VecF v_hop_dt = sd::VecF::broadcast(hop.dt);
        const sd::VecF v_fused = sd::VecF::broadcast(fused);
        float* crow = cost + j2 * n_t_;
        float* trow = time + j2 * n_t_;
        std::uint32_t* brow = back + j2 * n_t_;
        const std::uint32_t row_end = ws_.row_begin_[j + 1];
        for (std::uint32_t s = ws_.row_begin_[j]; s < row_end; s += W) {
          const auto n = std::min<std::uint32_t>(W, row_end - s);
          // Full-width loads are safe: the gather appended W-1 sentinels
          // past the last row, and interior rows are followed by real data.
          const sd::VecF arrive = sd::VecF::load(ws_.src_time_.data() + s) + v_hop_dt;
          const auto over = static_cast<unsigned>(sd::movemask(sd::cmp_ge(arrive, v_thresh)));
          const sd::VecD e_lo = sd::widen_low(arrive) - v_depart;
          const sd::VecD e_hi = sd::widen_high(arrive) - v_depart;
          const sd::VecD k_lo = use_inv ? e_lo * v_scale : e_lo / v_scale;
          const sd::VecD k_hi = use_inv ? e_hi * v_scale : e_hi / v_scale;
          sd::trunc_store_i32(k_lo, k2_buf);
          sd::trunc_store_i32(k_hi, k2_buf + Dw);
          (sd::VecF::load(ws_.src_cost_.data() + s) + v_fused).store(cost_buf);
          arrive.store(arrive_buf);
          // Lanes beyond the row (n < W) count as stopped; processing halts
          // at the first over-horizon or out-of-row lane, exactly where the
          // scalar `break` would (source times ascend within a row).
          const unsigned valid = n == W ? full : (1u << n) - 1u;
          const unsigned stop = ((over & valid) | ~valid) & full;
          const std::uint32_t n_ok =
              stop != 0 ? static_cast<std::uint32_t>(std::countr_zero(stop)) : W;
          for (std::uint32_t l = 0; l < n_ok; ++l) {
            const auto k2 = static_cast<std::size_t>(k2_buf[l]);
            const float new_cost = cost_buf[l];
            if (new_cost < crow[k2]) {
              crow[k2] = new_cost;
              trow[k2] = arrive_buf[l];
              brow[k2] = ws_.src_pred_[s + l];
              cover(k2);
            }
          }
          relaxations += n_ok;
          ++simd_chunks;
          simd_lanes_used += n_ok;
          if (n_ok < W) break;
        }
        continue;
      }
      for (std::uint32_t s = ws_.row_begin_[j]; s < ws_.row_begin_[j + 1]; ++s) {
        const float arrive_t = ws_.src_time_[s] + hop.dt;
        const double elapsed = static_cast<double>(arrive_t) - depart;
        // Source times ascend within a row, so the whole tail is over too.
        if (elapsed >= horizon) break;
        float hop_cost;
        if (check_windows) {
          // Signal crossing happens when leaving the signal's layer.
          hop_cost = static_cast<float>(penalized_cost(problem_.penalty,
                                                       static_cast<double>(raw),
                                                       ws_.src_inside_[s] != 0));
          if (!std::isfinite(hop_cost)) continue;
          hop_cost += lambda_dt;
          hop_cost += smooth_f;
        } else {
          hop_cost = fused;
        }
        const auto k2 = static_cast<std::size_t>(inv_dt != 0.0 ? elapsed * inv_dt
                                                               : elapsed / dt_s);
        const float new_cost = ws_.src_cost_[s] + hop_cost;
        const std::size_t to = j2 * n_t_ + k2;
        ++relaxations;
        if (new_cost < cost[to]) {
          cost[to] = new_cost;
          time[to] = arrive_t;
          back[to] = ws_.src_pred_[s];
          cover(k2);
        }
      }
    }
    if (span_lo < span_hi) ws_.span_[(i + 1) * n_v_ + j2] = DpWorkspace::RowSpan{span_lo, span_hi};
  }
  stats_.relaxations += relaxations;

  // Lane utilization = used / capacity. Local accumulation above keeps the
  // inner loop free of atomics; one add per layer lands in the registry.
  if (simd_chunks != 0) {
    static telemetry::Counter& lanes_used_ctr = telemetry::counter("dp.simd_lanes_used");
    static telemetry::Counter& lanes_cap_ctr = telemetry::counter("dp.simd_lanes_capacity");
    lanes_used_ctr.add(static_cast<long>(simd_lanes_used));
    lanes_cap_ctr.add(static_cast<long>(simd_chunks * W));
  }
}

std::optional<DpSolution> DpEngine::extract_solution() {
  const float* cost = ws_.cost_.data();
  const float* time = ws_.time_.data();
  const std::uint32_t* back = ws_.back_.data();
  const std::size_t n_t = n_t_, layer_size = layer_size_, n_layers = n_layers_;

  // Destination at the terminal speed; among optima prefer the earliest
  // arrival. (Restructured from the original: skip unreached/infinite cells
  // up front so the tie-break can never consult an unset best state.)
  const std::size_t dest_base = (n_layers - 1) * layer_size + j_dest_ * n_t;
  std::size_t best_k = n_t;
  float best_cost = kInf;
  float best_time = 0.0f;
  for (std::size_t k = 0; k < n_t; ++k) {
    const std::size_t id = dest_base + k;
    const float c = cost[id];
    if (c >= kInf) continue;
    if (best_k == n_t || c < best_cost - 1e-9f ||
        (std::abs(c - best_cost) <= 1e-9f && time[id] < best_time)) {
      best_cost = c;
      best_k = k;
      best_time = time[id];
    }
  }
  if (best_k == n_t) return std::nullopt;
  DpStats stats = stats_;
  stats.best_cost_mah = static_cast<double>(best_cost);

  // Backtrack.
  struct RawNode {
    std::size_t i, j, k;
  };
  std::vector<RawNode> chain;
  std::size_t ci = n_layers - 1;
  std::size_t cj = j_dest_;
  std::size_t ck = best_k;
  while (true) {
    chain.push_back(RawNode{ci, cj, ck});
    const std::uint32_t p = back[ci * layer_size + cell_of(cj, ck)];
    if (p == kNoPred) break;
    const bool dwell = pred_is_dwell(p);
    const std::size_t pj = pred_j(p);
    const std::size_t pk = pred_k(p);
    if (!dwell) {
      if (ci == 0) break;
      --ci;
    }
    cj = pj;
    ck = pk;
  }
  std::reverse(chain.begin(), chain.end());

  std::vector<PlanNode> nodes;
  nodes.reserve(chain.size() + problem_.events.size());
  for (std::size_t n = 0; n < chain.size(); ++n) {
    const RawNode& r = chain[n];
    PlanNode node;
    node.position_m = static_cast<double>(r.i) * ds_;
    node.speed_ms = static_cast<double>(r.j) * res_.dv_ms;
    node.time_s = static_cast<double>(time[r.i * layer_size + cell_of(r.j, r.k)]);
    // Materialize the mandatory stop-sign dwell as an explicit node so the
    // time-domain expansion shows the standstill.
    if (n > 0 && !nodes.empty()) {
      const RawNode& prev = chain[n - 1];
      const LayerEvent* pe = event_at_[prev.i];
      if (pe && pe->type == LayerEvent::Type::kStopSign && prev.i != r.i && pe->dwell_s > 0.0) {
        PlanNode wait = nodes.back();
        wait.time_s += pe->dwell_s;
        nodes.push_back(wait);
      }
    }
    nodes.push_back(node);
  }

  // Annotate cumulative *physical* charge along the plan (the solver's state
  // cost additionally carries the time-value term and penalties, which are
  // optimizer-internal).
  const double phys_idle_mah_s = ah_to_mah(as_to_ah(energy_.accessory_current_a()));
  for (std::size_t n = 1; n < nodes.size(); ++n) {
    PlanNode& cur = nodes[n];
    const PlanNode& prev = nodes[n - 1];
    const double dt = cur.time_s - prev.time_s;
    const double dist = cur.position_m - prev.position_m;
    double delta = 0.0;
    if (dist < 1e-9) {
      delta = phys_idle_mah_s * dt;  // dwell
    } else {
      const double v_mid = 0.5 * (prev.speed_ms + cur.speed_ms);
      const double a = (cur.speed_ms * cur.speed_ms - prev.speed_ms * prev.speed_ms) / (2.0 * dist);
      const double grade = route_.grade_at(prev.position_m + 0.5 * dist);
      delta = ah_to_mah(
          as_to_ah(energy_.current_a(MetersPerSecond(v_mid), MetersPerSecondSquared(a), grade) * dt));
    }
    cur.energy_mah = prev.energy_mah + delta;
  }

  return DpSolution{PlannedProfile(std::move(nodes)), stats};
}

}  // namespace detail

std::optional<DpSolution> solve_dp(const DpProblem& problem) {
  DpWorkspace workspace;
  return solve_dp(problem, workspace);
}

std::optional<DpSolution> solve_dp(const DpProblem& problem, DpWorkspace& workspace) {
  problem.validate();
  detail::DpEngine engine(problem, workspace);
  return engine.run(0);
}

std::optional<DpSolution> solve_dp_incremental(const DpProblem& problem, DpPrevSolution& prev,
                                               DpWorkspace& workspace,
                                               DpReplanStats* replan_stats) {
  problem.validate();

  DpReplanStats local_stats;
  DpReplanStats& rs = replan_stats ? *replan_stats : local_stats;
  rs = DpReplanStats{};
  {
    const auto n_hops = static_cast<std::size_t>(
        std::max(1.0, std::round(problem.route->length() / problem.resolution.ds_m)));
    rs.total_layers = n_hops;  // a cold solve runs n_layers - 1 == n_hops relaxations
  }

  ReplanDelta delta;
  if (!prev.valid) {
    delta = ReplanDelta{ReplanDelta::Path::kCold, 0, "no previous solve"};
  } else if (prev.workspace_serial != workspace.solve_serial()) {
    delta = ReplanDelta{ReplanDelta::Path::kCold, 0, "workspace reused by another solve"};
  } else if (prev.bound_ub < kInf && !problem.bound_pruning) {
    delta = ReplanDelta{ReplanDelta::Path::kCold, 0, "tables were bound-pruned"};
  } else {
    delta = classify_replan(prev.key, prev.events, prev.dominance_pruning, problem);
  }

  // Outcome mix of the replan classifier; the ratio of splices to cold
  // fallbacks is the fleet-level health signal for warm-start effectiveness.
  static telemetry::Counter& spliced_ctr = telemetry::counter("dp.replan.spliced");
  static telemetry::Counter& stripes_ctr = telemetry::counter("dp.replan.stripes");
  static telemetry::Counter& cold_ctr = telemetry::counter("dp.replan.cold");
  (delta.path == ReplanDelta::Path::kSpliced ? spliced_ctr
   : delta.path == ReplanDelta::Path::kStripes ? stripes_ctr
                                               : cold_ctr)
      .add(1);

  if (delta.path == ReplanDelta::Path::kSpliced) {
    // Nothing the DP reads has changed: the cached solution IS the cold
    // solve's output (the solver is deterministic), and the workspace still
    // holds its tables (serial matched), so a newly requested checksum can
    // be computed from them without re-relaxing anything.
    DpSolution out = *prev.solution;
    if (problem.checksum_tables) {
      if (!prev.had_checksum) {
        const DpStats& st = prev.solution->stats;
        out.stats.table_checksum = detail::DpEngine::table_checksum_of(
            workspace, st.layers, st.velocity_levels, st.time_bins);
        prev.solution->stats.table_checksum = out.stats.table_checksum;
        prev.had_checksum = true;
      }
    } else {
      out.stats.table_checksum = 0;  // a cold no-checksum solve reports 0
    }
    rs.path = ReplanDelta::Path::kSpliced;
    rs.relaxed_layers = 0;
    return out;
  }

  const std::size_t first_relax =
      delta.path == ReplanDelta::Path::kStripes ? delta.first_relax : 0;
  detail::DpEngine engine(problem, workspace);
  std::optional<DpSolution> out;
  try {
    out = engine.run(first_relax, prev.bound_ub);
  } catch (...) {
    prev.reset();
    throw;
  }
  if (engine.fell_back_cold()) {
    delta = ReplanDelta{ReplanDelta::Path::kCold, 0, "incumbent bound did not certify"};
    rs.bound_fallback = true;
  }
  rs.path = delta.path;
  rs.first_relax = delta.first_relax;
  rs.relaxed_layers = rs.total_layers - delta.first_relax;
  rs.cold_reason = delta.path == ReplanDelta::Path::kCold ? delta.reason : "";
  if (!out.has_value()) {
    // Infeasible sweeps stop mid-suffix, leaving later layers stale; the
    // next solve over this workspace must start cold.
    prev.reset();
    return out;
  }
  prev.valid = true;
  prev.workspace_serial = workspace.solve_serial();
  prev.key = DpProblemKey::of(problem);
  prev.events = problem.events;
  prev.dominance_pruning = problem.dominance_pruning;
  prev.bound_ub = engine.accepted_ub();
  prev.had_checksum = problem.checksum_tables;
  prev.solution = *out;
  return out;
}

}  // namespace evvo::core
