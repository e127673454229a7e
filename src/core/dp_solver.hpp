// Time-expanded dynamic-programming velocity optimizer (paper Sec. II-C).
//
// The paper's recursion Eq. (8) optimizes over discrete velocities per
// equal-distance point and evaluates arrival times t(s_i) (Eq. 10) against
// the zero-queue windows T_q (Eq. 11). Arrival time is a function of the
// whole velocity history, so over (position, velocity) alone the problem is
// non-Markovian; the standard fix - used here - is to make (discretized)
// time an explicit state axis. States are (layer i, velocity v_j, time bin
// t_k); each cell also stores the continuous arrival time of its best path,
// so window tests do not accumulate binning error.
//
// Transitions apply constant acceleration over one distance step (Eq. 7b),
// respect per-segment speed limits (Eq. 7a), force v = 0 at stop signs,
// source, and destination (Eq. 7c-d), and charge the EV energy model
// (Eq. 3) as the transition cost g1 (Eq. 9). Crossings of a signal layer
// outside T_q incur the Eq. (12) penalty. Zero-speed states may dwell in
// place (waiting at a stop line) at accessory-power cost, which keeps the
// problem feasible for every signal schedule.
//
// Solver data path (vs. the dense-relaxation formulation):
//  - Reachable-frontier sweep: only the live (velocity, time-bin) cells of a
//    layer are expanded. Most of the n_v x n_t table is unreachable -
//    especially in early layers, where the arrival-time spread is narrow -
//    so the frontier is a small fraction of the grid.
//  - Dominance pruning: past the last enforced signal window, a state is
//    dropped when an earlier-or-equal-time state at the same (layer,
//    velocity) is strictly cheaper; remaining transition costs are then
//    time-independent, so the dominated state cannot improve the optimum.
//  - Fused cost tables: per grade class (few distinct grades exist along a
//    route), the transition energy, the time-value term lambda*dt, and the
//    smoothness regularizer are pre-added into one flat table with the same
//    float rounding sequence as the naive inner loop, making the relaxation
//    a pure load-add-compare.
//  - Gather relaxation: each destination row of layer i+1 is reset and then
//    filled by scanning its source states in (velocity, time) order, so
//    equal-cost ties always resolve to the same predecessor. A solve runs
//    entirely on the calling thread; concurrency comes from solving
//    independent requests side by side, each over its own workspace.
//  - SIMD relaxation: away from enforced signal windows the inner source
//    scan runs VecF::kWidth states per step (common/simd.hpp) - the arrival
//    time, horizon test, time binning, and candidate cost are computed
//    lane-wise with exactly the scalar operation sequence, and the strict-<
//    scatter stays scalar in source order, so the solve (tables, stats,
//    ties) is bit-identical to the scalar path. DpResolution::simd toggles
//    the kernel at runtime for differential checking.
//  - Bound pruning: a backward sweep over (layer, velocity) alone gives a
//    consistent lower bound h on every state's cost-to-go; a source whose
//    cost-so-far plus h exceeds an incumbent bound UB is never relaxed. A
//    pruned sweep is accepted only when its optimum is <= UB, which
//    certifies that no state of an optimal path was dropped, so cost and
//    profile equal the unpruned solve's. Otherwise UB is raised over a fixed
//    schedule, ending in an unpruned sweep (DESIGN.md "Bound pruning").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "core/penalty.hpp"
#include "core/planned_profile.hpp"
#include "ev/energy_model.hpp"
#include "road/route.hpp"
#include "road/signals.hpp"

namespace evvo::core {

namespace detail {
class DpEngine;
}

/// Grid resolutions of the time-expanded DP.
struct DpResolution {
  double ds_m = 10.0;      ///< distance step between layers
  double dv_ms = 0.5;      ///< velocity quantum
  double dt_s = 1.0;       ///< time-bin width (continuous times are still propagated)
  double horizon_s = 450.0;///< maximum trip duration considered
  /// Ignored: every solve runs on the calling thread. Kept, at 1, only for
  /// the fleet benchmark's run descriptor, which still reads it.
  unsigned threads = 1;
  /// Use the vectorized relaxation kernel (common/simd.hpp) when the build
  /// compiled a non-scalar backend. Either setting yields bit-identical
  /// solutions and stats - the check harness solves both ways and compares
  /// table checksums - so this exists for differential testing and triage,
  /// not tuning. No effect on cached model tables (not part of ModelKey).
  bool simd = true;

  void validate() const;

  /// True when the solver's float clock resolves one time bin over a trip
  /// that starts at `time`: `time` is finite and the float spacing at
  /// |time| + horizon_s is at most dt_s. DpProblem::validate rejects any
  /// departure for which this is false, and PlanService rejects such request
  /// times before its cache lookup, so a hit and a miss agree on them.
  bool resolves_clock(Seconds time) const;
};

/// A regulatory event snapped to a grid layer.
struct LayerEvent {
  enum class Type { kStopSign, kSignal };
  Type type = Type::kSignal;
  std::size_t layer = 0;
  double dwell_s = 0.0;                    ///< stop sign: mandatory standstill
  bool enforce_windows = false;            ///< signal: check T_q on crossing
  std::vector<road::TimeWindow> windows;   ///< T_q (absolute times)
};

/// Everything the solver needs for one trip.
struct DpProblem {
  const road::Route* route = nullptr;
  const ev::EnergyModel* energy = nullptr;
  Seconds depart_time{};
  DpResolution resolution{};
  PenaltyConfig penalty{};
  std::vector<LayerEvent> events;

  /// Boundary speeds. The paper's Eq. (7d) fixes both to 0 (a full trip from
  /// rest to rest); a mid-route replan instead starts from the vehicle's
  /// current speed. Speeds are snapped to the velocity grid.
  MetersPerSecond initial_speed{};
  MetersPerSecond final_speed{};

  /// Smoothness regularizer: extra cost per m/s of speed change across a
  /// hop [mAh per m/s]. Under the paper's symmetric Eq. (3) regeneration, a
  /// micro-oscillation between adjacent velocity levels is energy-free, so
  /// the solver is otherwise indifferent to chattering profiles; a small
  /// weight breaks those ties toward smooth (comfortable, battery-friendly)
  /// plans without measurably changing trip energy.
  double smoothness_weight_mah_per_ms = 0.3;

  /// Value of travel time, expressed as an equivalent charge rate [mAh/s]
  /// added to every second of the trip (driving, dwelling, and mandatory
  /// stops alike). The paper's evaluation reports that the optimal profile
  /// does not increase trip time over fast driving; a pure-energy objective
  /// would instead crawl (slower is always cheaper per meter below the
  /// aerodynamic crossover), so the trip-time value the paper leaves implicit
  /// is made explicit here. The default in PlannerConfig is calibrated so the
  /// optimizer's trip time lands at the paper's (~283 s over the corridor);
  /// bench_ablation sweeps it. 0 recovers the pure-energy objective.
  double time_weight_mah_per_s = 0.0;

  /// Drop dominated states past the last enforced signal window (see the
  /// header comment). Disable to force the exhaustive sweep; pruned and
  /// unpruned solves agree on the optimal cost.
  bool dominance_pruning = true;

  /// Drop sources that cannot beat the incumbent bound (see the header
  /// comment). Cost and profile are identical either way; table checksums
  /// and DpStats work counters match the exhaustive sweep only when off.
  bool bound_pruning = true;

  /// Oracle self-test seam (`evvo_fuzz --inject bound-inadmissible`): any
  /// value other than 1 multiplies the cost-to-go bound and drops the pruning
  /// margin, making the bound inadmissible on purpose. Always 1 otherwise.
  double bound_fault_inflation = 1.0;

  /// Checksum the final state tables into DpStats::table_checksum (see
  /// dp_common.hpp). Off by default: the scan touches the whole grid, which
  /// the lazy-reset data path otherwise avoids. The check harness uses it to
  /// assert table-level identity across solver variants (SIMD on/off, warm
  /// resumes) and against the naive reference solver.
  bool checksum_tables = false;

  /// Throws std::invalid_argument for a missing route or energy model, a
  /// non-finite departure or boundary speed, an invalid resolution or
  /// penalty, or a departure the float clock cannot resolve
  /// (!resolution.resolves_clock(depart_time)).
  void validate() const;
};

/// Solver diagnostics.
struct [[nodiscard]] DpStats {
  std::size_t layers = 0;
  std::size_t velocity_levels = 0;
  std::size_t time_bins = 0;
  std::size_t relaxations = 0;
  std::size_t frontier_states = 0;  ///< live states expanded across all layers
  std::size_t pruned_states = 0;    ///< states dropped by dominance pruning
  std::size_t bound_pruned_states = 0;  ///< sources dropped by bound pruning
  std::size_t bound_attempts = 0;   ///< sweeps run under bound pruning (0 = off)
  /// Cost-to-go lower bound at the source state (0 when bound pruning is
  /// off); never above best_cost_mah for an admissible bound.
  double bound_mah = 0.0;
  double best_cost_mah = 0.0;
  /// FNV checksum of the reachable state tables (0 unless
  /// DpProblem::checksum_tables was set).
  std::uint64_t table_checksum = 0;
};

struct [[nodiscard]] DpSolution {
  PlannedProfile profile;
  DpStats stats;
};

/// Reusable solver memory: the (layers x velocities x time-bins) state
/// tables, the per-layer source lists, and the model-derived cost tables.
///
/// The state tables are the dominant per-solve cost of the naive solver
/// (three multi-megabyte allocations plus an O(N) infinity fill). A
/// workspace keeps them allocated across solves and skips the grid-wide
/// clear: each destination row's live span is reset to +inf just before it
/// is relaxed into, and time_/back_ are only ever read behind a finite
/// cost, so no cell is ever read stale. The model tables (feasible hops
/// per velocity level, per-grade-class transition costs) are cached across
/// solves and rebuilt only when the route geometry, energy model, or
/// resolution fingerprint changes - a PlanService miss storm on one corridor
/// pays the table build once.
///
/// A workspace is NOT thread-safe: one solve at a time per workspace.
/// VelocityPlanner keeps a pool of them so concurrent plan() calls each
/// check one out.
namespace detail {

/// Growable buffer that never value-initializes: growing to N elements is
/// one allocation, not an allocation plus an N-element memset. The DP state
/// tables are tens of megabytes and every live cell is written before it is
/// read (rows are +inf-filled just before they are relaxed into), so the
/// zero-fill a std::vector would do on first use is pure page-touching
/// waste. Growth discards contents - callers grow only between solves.
template <typename T>
class UninitBuffer {
 public:
  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }
  /// True when the buffer was reallocated (its contents are then garbage).
  bool grow_to(std::size_t n) {
    if (n <= size_) return false;
    data_ = std::make_unique_for_overwrite<T[]>(n);
    size_ = n;
    return true;
  }

 private:
  std::unique_ptr<T[]> data_;
  std::size_t size_ = 0;
};

}  // namespace detail

class DpWorkspace {
 public:
  DpWorkspace() = default;
  DpWorkspace(const DpWorkspace&) = delete;
  DpWorkspace& operator=(const DpWorkspace&) = delete;

  /// Bytes held by the per-solve state tables (diagnostics).
  std::size_t state_bytes() const {
    return cost_.size() * sizeof(float) + time_.size() * sizeof(float) +
           back_.size() * sizeof(std::uint32_t);
  }

  /// Monotone count of engine runs over this workspace, bumped before a run
  /// touches any table (a throwing or infeasible run still counts). The
  /// incremental solver (core/dp_replan.hpp) records it alongside its
  /// previous-solve snapshot: a mismatch proves another solve reused the
  /// tables in between, so warm-starting from them would be unsound.
  std::uint64_t solve_serial() const { return solve_serial_; }

 private:
  friend class detail::DpEngine;

  struct FwdHop {
    std::uint32_t j_to = 0;
    float dt = 0.0f;     ///< travel time over one distance step
    float accel = 0.0f;  ///< constant acceleration
  };
  struct RevHop {
    std::uint32_t j_from = 0;
    float dt = 0.0f;
  };

  /// Fingerprint of everything the model tables depend on. The route is
  /// hashed by content (replanning solves over short-lived suffix routes
  /// whose addresses may recur).
  struct ModelKey {
    bool valid = false;
    const void* energy = nullptr;
    std::uint64_t route_hash = 0;
    double ds_m = 0.0, dv_ms = 0.0, lambda = 0.0, smoothness = 0.0;
    bool operator==(const ModelKey&) const = default;
  };

  // --- model tables (cached across solves, keyed by model_key_) ---
  ModelKey model_key_{};
  std::vector<FwdHop> fwd_hops_;            ///< flattened hops grouped by source level
  std::vector<std::uint32_t> fwd_begin_;    ///< n_v + 1 offsets into fwd_hops_
  std::vector<RevHop> rev_hops_;            ///< flattened hops grouped by destination level
  std::vector<std::uint32_t> rev_begin_;    ///< n_v + 1 offsets into rev_hops_
  std::vector<float> grade_energy_;         ///< [class][j][j2] transition energy [mAh]
  std::vector<float> grade_fused_;          ///< energy + lambda*dt + smoothness, seed rounding
  std::vector<std::uint32_t> layer_class_;  ///< hop layer -> grade class index
  std::vector<double> layer_limit_;         ///< per-layer posted speed limit

  // --- per-solve state (rows reset lazily, just before they are relaxed) ---
  detail::UninitBuffer<float> cost_;
  detail::UninitBuffer<float> time_;
  detail::UninitBuffer<std::uint32_t> back_;

  /// Time bins [lo, hi) of one (layer, velocity) row that may hold a finite
  /// cost; every cost outside it is +inf. Resets, source scans and dwell
  /// chains touch only these spans, so a sweep's memory traffic follows the
  /// live region instead of the whole grid.
  struct RowSpan {
    std::uint32_t lo = 0, hi = 0;
  };
  std::vector<RowSpan> span_;  ///< per row, layer-major
  /// Table layout the spans describe; rows of layers >= span_layers_ are
  /// not yet +inf-filled.
  std::size_t span_nv_ = 0, span_nt_ = 0, span_layers_ = 0;

  // --- per-layer scratch: compact source list in (j, k)-lex order ---
  std::vector<std::uint32_t> src_pred_;     ///< packed backpointer (j << 20 | k)
  std::vector<float> src_cost_;             ///< cost + mandatory-stop charge
  std::vector<float> src_time_;             ///< arrival time + mandatory dwell
  std::vector<std::uint8_t> src_inside_;    ///< inside the signal window T_q
  std::vector<std::uint32_t> row_begin_;    ///< n_v + 1 offsets into the source list

  // --- cost-to-go bound [layer][velocity] of the last run, and the one
  // before it (a warm resume compares their prefixes) ---
  std::vector<float> bound_;
  std::vector<float> bound_prev_;

  /// Size the state tables for an (n_layers x n_v x n_t) grid, +inf-filling
  /// whatever the row spans do not yet describe.
  void ensure_state_tables(std::size_t n_layers, std::size_t n_v, std::size_t n_t);

  /// Build (or reuse) the cached model tables for the given grid geometry.
  void ensure_model_tables(const road::Route& route, const ev::EnergyModel& energy,
                           const DpResolution& res, double lambda, double smoothness, double ds,
                           std::size_t n_hops, std::size_t n_layers, std::size_t n_v);

  std::uint64_t solve_serial_ = 0;  ///< see solve_serial()
};

/// Runs the DP on the calling thread. Returns std::nullopt only if no
/// feasible trajectory reaches the destination within the horizon. This
/// overload allocates a throwaway workspace.
[[nodiscard]] std::optional<DpSolution> solve_dp(const DpProblem& problem);

/// As above, reusing `workspace` across calls.
[[nodiscard]] std::optional<DpSolution> solve_dp(const DpProblem& problem, DpWorkspace& workspace);

}  // namespace evvo::core
