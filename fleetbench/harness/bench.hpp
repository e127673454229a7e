// Shared pieces of the fleet benchmark harness: latency histograms, process
// resource readings, and the per-thread span recorder the traced run uses.
//
// The harness drives the evvo libraries only through their public APIs
// (cloud::PlanService, core::VelocityPlanner, traffic::QueuePredictor,
// traffic::SaeVolumePredictor) and reads the telemetry registry the
// libraries already publish. It adds no instrumentation to the program.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fleetbench {

/// Monotonic nanoseconds (the library's clock seam, common::now_ns).
std::uint64_t now_ns();

/// Log-linear latency histogram with 512 sub-buckets per octave (0.2 %
/// relative resolution) and exact unit buckets below 512 ns. Percentiles
/// interpolate linearly inside the bucket, so they are continuous in the
/// recorded data instead of snapping to bucket bounds. Memory is constant
/// (~140 KB), so a closed loop can record every request it serves.
class LatencyHist {
 public:
  void record(std::uint64_t ns);
  void merge(const LatencyHist& other);
  std::uint64_t count() const { return count_; }
  /// Value at quantile p in [0, 1] by rank p * (count - 1); 0 when empty.
  double percentile_ns(double p) const;

 private:
  static constexpr int kSubBits = 9;
  static constexpr int kMaxMsb = 41;
  static int bucket_index(std::uint64_t v);
  static double bucket_lower(int idx);
  static double bucket_width(int idx);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// User + system CPU seconds of the whole process (every thread).
double process_cpu_s();
/// CPU seconds of the calling thread.
double thread_cpu_s();
/// Peak resident set size of the process [MB].
double peak_rss_mb();

// --- Tracing -------------------------------------------------------------

/// The layer boundaries the harness records spans around. One root span per
/// request (or per tick of requests); the others are its children, except
/// the probes, which are roots of their own outside every request.
enum class SpanKind {
  kRequest,       ///< one request (or closed-loop tick) from submit to profile in hand
  kCloudCall,     ///< one PlanService::request_*_tickets call
  kPlannerCall,   ///< one VelocityPlanner::plan / replan call
  kMaterialize,   ///< one PlanTicket::materialize
  kPredict,       ///< one SaeVolumePredictor::predict_next (demand update)
  kBuildEvents,   ///< probe: VelocityPlanner::build_events
  kWindows,       ///< probe: QueuePredictor::zero_queue_windows
  kCount
};
const char* span_name(SpanKind kind);

struct SpanRecord {
  SpanKind kind = SpanKind::kRequest;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// One thread's spans. Aggregates (duration histogram, self time) cover
/// every span; the raw records kept for the trace file are capped.
class ThreadTrace {
 public:
  static constexpr std::size_t kMaxKept = 4096;

  struct KindStats {
    LatencyHist duration;
    double self_ns = 0.0;
  };

  explicit ThreadTrace(std::uint32_t thread_id) : thread_id_(thread_id) {}

  void open(SpanKind kind, std::uint64_t request);
  /// Closes the innermost open span. `covered_ns` is time inside it that a
  /// program span (DP solve, batch solve) accounts for; it is subtracted
  /// from the span's self time like a child's.
  void close(double covered_ns = 0.0);

  const KindStats& stats(SpanKind kind) const { return stats_[static_cast<int>(kind)]; }
  double root_ns() const { return root_ns_; }
  std::uint32_t thread_id() const { return thread_id_; }
  const std::vector<SpanRecord>& kept() const { return kept_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  struct Open {
    SpanRecord record;
    double child_ns = 0.0;
  };
  std::uint32_t thread_id_;
  std::uint32_t next_id_ = 1;
  std::vector<Open> stack_;
  KindStats stats_[static_cast<int>(SpanKind::kCount)];
  double root_ns_ = 0.0;
  std::vector<SpanRecord> kept_;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a null trace makes it a no-op (the untraced run).
class Span {
 public:
  Span(ThreadTrace* trace, SpanKind kind, std::uint64_t request) : trace_(trace) {
    if (trace_ != nullptr) trace_->open(kind, request);
  }
  ~Span() {
    if (trace_ != nullptr) trace_->close(covered_ns_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void cover(double ns) { covered_ns_ += ns; }

 private:
  ThreadTrace* trace_;
  double covered_ns_ = 0.0;
};

/// Writes every kept span of `traces` plus the library's trace-ring events
/// as JSON lines to `path`. Returns false when the file cannot be written.
bool write_trace_file(const std::string& path, const std::vector<const ThreadTrace*>& traces);

}  // namespace fleetbench
