#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <ctime>
#include <fstream>

#include "common/clock.hpp"
#include "common/telemetry.hpp"

namespace fleetbench {

std::uint64_t now_ns() { return evvo::common::now_ns(); }

// --- LatencyHist -----------------------------------------------------------

int LatencyHist::bucket_index(std::uint64_t v) {
  constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  if (v < kSub) return static_cast<int>(v);
  constexpr std::uint64_t kMax = (std::uint64_t{1} << (kMaxMsb + 1)) - 1;
  v = std::min(v, kMax);
  const int msb = 63 - std::countl_zero(v);
  const int sub = static_cast<int>((v >> (msb - kSubBits)) & (kSub - 1));
  return ((msb - kSubBits + 1) << kSubBits) + sub;
}

double LatencyHist::bucket_lower(int idx) {
  constexpr int kSub = 1 << kSubBits;
  if (idx < kSub) return idx;
  const int octave = idx >> kSubBits;
  const int sub = idx & (kSub - 1);
  return static_cast<double>(static_cast<std::uint64_t>(kSub + sub) << (octave - 1));
}

double LatencyHist::bucket_width(int idx) {
  constexpr int kSub = 1 << kSubBits;
  return idx < kSub ? 1.0 : static_cast<double>(std::uint64_t{1} << ((idx >> kSubBits) - 1));
}

void LatencyHist::record(std::uint64_t ns) {
  const auto idx = static_cast<std::size_t>(bucket_index(ns));
  if (buckets_.size() <= idx) buckets_.resize(idx + 1, 0);
  ++buckets_[idx];
  ++count_;
}

void LatencyHist::merge(const LatencyHist& other) {
  if (buckets_.size() < other.buckets_.size()) buckets_.resize(other.buckets_.size(), 0);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHist::percentile_ns(double p) const {
  if (count_ == 0) return 0.0;
  const double rank = std::clamp(p, 0.0, 1.0) * static_cast<double>(count_ - 1);
  double before = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const auto n = static_cast<double>(buckets_[i]);
    if (n == 0.0) continue;
    if (rank < before + n) {
      const int idx = static_cast<int>(i);
      // Samples spread evenly over the bucket: the k-th of n sits at (k + 0.5) / n.
      return bucket_lower(idx) + bucket_width(idx) * (rank - before + 0.5) / n;
    }
    before += n;
  }
  return bucket_lower(static_cast<int>(buckets_.size()) - 1);
}

// --- Process resources -----------------------------------------------------

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// --- Spans -----------------------------------------------------------------

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest:
      return "request";
    case SpanKind::kCloudCall:
      return "cloud.call";
    case SpanKind::kPlannerCall:
      return "planner.call";
    case SpanKind::kMaterialize:
      return "planned_profile.materialize";
    case SpanKind::kPredict:
      return "learn.predict";
    case SpanKind::kBuildEvents:
      return "planner.build_events";
    case SpanKind::kWindows:
      return "traffic.zero_queue_windows";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

void ThreadTrace::open(SpanKind kind, std::uint64_t request) {
  Open span;
  span.record.kind = kind;
  span.record.id = next_id_++;
  span.record.parent = stack_.empty() ? 0 : stack_.back().record.id;
  span.record.request = request;
  span.record.start_ns = now_ns();
  stack_.push_back(span);
}

void ThreadTrace::close(double covered_ns) {
  Open span = stack_.back();
  stack_.pop_back();
  span.record.end_ns = now_ns();
  const double duration = static_cast<double>(span.record.end_ns - span.record.start_ns);
  KindStats& st = stats_[static_cast<int>(span.record.kind)];
  st.duration.record(span.record.end_ns - span.record.start_ns);
  st.self_ns += std::max(0.0, duration - span.child_ns - covered_ns);
  if (stack_.empty()) {
    root_ns_ += duration;
  } else {
    stack_.back().child_ns += duration;
  }
  if (kept_.size() < kMaxKept) {
    kept_.push_back(span.record);
  } else {
    ++dropped_;
  }
}

bool write_trace_file(const std::string& path, const std::vector<const ThreadTrace*>& traces) {
  std::ofstream out(path);
  if (!out) return false;
  for (const ThreadTrace* trace : traces) {
    for (const SpanRecord& s : trace->kept()) {
      out << "{\"source\":\"harness\",\"thread\":" << trace->thread_id() << ",\"name\":\""
          << span_name(s.kind) << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
    if (trace->dropped() > 0) {
      out << "{\"source\":\"harness\",\"thread\":" << trace->thread_id()
          << ",\"dropped_spans\":" << trace->dropped() << "}\n";
    }
  }
  // The library's own spans (DP solves, stripes, batch sweeps, ticket
  // serving): the most recent ring entries, oldest first.
  for (const evvo::telemetry::TraceEvent& e : evvo::telemetry::trace_events()) {
    if (e.name == nullptr) continue;
    out << "{\"source\":\"ring\",\"name\":\"" << e.name << "\",\"depth\":" << e.depth
        << ",\"start_ns\":" << e.start_ns << ",\"end_ns\":" << e.start_ns + e.duration_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace fleetbench
