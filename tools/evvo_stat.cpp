// evvo_stat - pretty-printer and differ for telemetry snapshot JSON.
//
// Reads the format telemetry::to_json() emits (evvo_load --telemetry-dump
// writes it) and renders it for humans:
//
//   evvo_stat dump.json               # one snapshot, tabulated
//   evvo_stat --diff before.json after.json
//
// Diff mode subtracts counters and histogram buckets (the fixed log-linear
// layout makes bucket-wise subtraction exact) and recomputes p50/p90/p99
// from the difference distribution - the percentiles of exactly the samples
// recorded between the two snapshots, something the pre-aggregated
// percentile fields alone cannot give. Gauges are levels, not totals, so the
// diff shows old -> new instead of a delta.
//
// Exit codes: 0 ok, 2 usage/parse error. Parsing is strict: a histogram
// entry with a missing or unknown unit, or malformed buckets, is an error -
// telemetry files are machine-written, so damage means a bug upstream.
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/telemetry.hpp"

namespace {

using evvo::telemetry::Histogram;

// --- minimal JSON (the subset to_json emits) ------------------------------

struct Json {
  enum class Kind { kNull, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  double number = 0.0;
  std::string str;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  const Json* find(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    const auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::optional<Json> parse() {
    std::optional<Json> v = value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<Json> value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    return number();
  }

  std::optional<Json> object() {
    if (!consume('{')) return std::nullopt;
    Json out;
    out.kind = Json::Kind::kObject;
    skip_ws();
    if (consume('}')) return out;
    while (true) {
      std::optional<Json> key = string_value();
      if (!key || !consume(':')) return std::nullopt;
      std::optional<Json> val = value();
      if (!val) return std::nullopt;
      out.fields.emplace(std::move(key->str), std::move(*val));
      if (consume(',')) continue;
      if (consume('}')) return out;
      return std::nullopt;
    }
  }

  std::optional<Json> array() {
    if (!consume('[')) return std::nullopt;
    Json out;
    out.kind = Json::Kind::kArray;
    skip_ws();
    if (consume(']')) return out;
    while (true) {
      std::optional<Json> val = value();
      if (!val) return std::nullopt;
      out.items.push_back(std::move(*val));
      if (consume(',')) continue;
      if (consume(']')) return out;
      return std::nullopt;
    }
  }

  std::optional<Json> string_value() {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') return std::nullopt;
    ++pos_;
    Json out;
    out.kind = Json::Kind::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        out.str += text_[pos_++];  // metric names never need fancier escapes
      } else {
        out.str += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Json> number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (start == pos_) return std::nullopt;
    Json out;
    out.kind = Json::Kind::kNumber;
    try {
      out.number = std::stod(text_.substr(start, pos_ - start));
    } catch (...) {
      return std::nullopt;
    }
    return out;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// --- snapshot model --------------------------------------------------------

struct HistData {
  std::string unit;  ///< "ns" or "count"
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::map<int, std::int64_t> buckets;  ///< bucket index -> sample count
};

struct StatFile {
  std::map<std::string, long> counters;
  std::map<std::string, long> gauges;
  std::map<std::string, HistData> histograms;
};

/// Percentile of a (possibly diffed) bucket distribution, matching
/// Histogram::percentile's rank convention: the lower bound of the bucket
/// holding the rank-llround(p*(n-1))+1 sample.
std::uint64_t bucket_percentile(const std::map<int, std::int64_t>& buckets, double p) {
  std::int64_t total = 0;
  for (const auto& [idx, n] : buckets) total += n;
  if (total <= 0) return 0;
  const std::int64_t rank = std::llround(p * static_cast<double>(total - 1)) + 1;
  std::int64_t seen = 0;
  for (const auto& [idx, n] : buckets) {
    seen += n;
    if (seen >= rank) return Histogram::bucket_lower(idx);
  }
  return Histogram::bucket_lower(buckets.rbegin()->first);
}

std::optional<StatFile> load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "evvo_stat: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::optional<Json> root = JsonParser(text).parse();
  if (!root || root->kind != Json::Kind::kObject) {
    std::fprintf(stderr, "evvo_stat: %s is not valid JSON\n", path.c_str());
    return std::nullopt;
  }

  StatFile out;
  const auto load_longs = [&root](const char* section, std::map<std::string, long>& dst) {
    const Json* obj = (*root).find(section);
    if (!obj) return true;
    for (const auto& [name, v] : obj->fields) {
      if (v.kind != Json::Kind::kNumber) return false;
      dst[name] = std::lround(v.number);
    }
    return true;
  };
  if (!load_longs("counters", out.counters) || !load_longs("gauges", out.gauges)) {
    std::fprintf(stderr, "evvo_stat: %s: counters/gauges must map names to numbers\n",
                 path.c_str());
    return std::nullopt;
  }

  if (const Json* hists = root->find("histograms")) {
    for (const auto& [name, h] : hists->fields) {
      HistData data;
      const Json* unit = h.find("unit");
      if (!unit || (unit->str != "ns" && unit->str != "count")) {
        std::fprintf(stderr, "evvo_stat: %s: histogram %s has a missing or unknown unit\n",
                     path.c_str(), name.c_str());
        return std::nullopt;
      }
      data.unit = unit->str;
      const auto u64 = [&h](const char* key) -> std::optional<std::uint64_t> {
        const Json* v = h.find(key);
        if (!v || v->kind != Json::Kind::kNumber || v->number < 0) return std::nullopt;
        return static_cast<std::uint64_t>(v->number);
      };
      const auto count = u64("count");
      const auto sum = u64("sum");
      const auto max = u64("max");
      const Json* buckets = h.find("buckets");
      if (!count || !sum || !max || !buckets || buckets->kind != Json::Kind::kArray) {
        std::fprintf(stderr, "evvo_stat: %s: histogram %s is malformed\n", path.c_str(),
                     name.c_str());
        return std::nullopt;
      }
      data.count = *count;
      data.sum = *sum;
      data.max = *max;
      for (const Json& pair : buckets->items) {
        if (pair.kind != Json::Kind::kArray || pair.items.size() != 2 ||
            pair.items[0].kind != Json::Kind::kNumber ||
            pair.items[1].kind != Json::Kind::kNumber) {
          std::fprintf(stderr, "evvo_stat: %s: histogram %s has malformed buckets\n",
                       path.c_str(), name.c_str());
          return std::nullopt;
        }
        const int idx = static_cast<int>(pair.items[0].number);
        if (idx < 0 || idx >= Histogram::kBucketCount) {
          std::fprintf(stderr, "evvo_stat: %s: histogram %s bucket index %d out of range\n",
                       path.c_str(), name.c_str(), idx);
          return std::nullopt;
        }
        data.buckets[idx] = static_cast<std::int64_t>(pair.items[1].number);
      }
      out.histograms.emplace(name, std::move(data));
    }
  }
  return out;
}

// --- rendering -------------------------------------------------------------

/// DP bound pruning at a glance: how many gathered sources the cost-to-go
/// bound dropped, and how many sweeps a certified solve took on average.
void print_bound_pruning(const StatFile& snap) {
  const auto counter = [&snap](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0L : it->second;
  };
  const auto solves = [&snap](const char* name) {
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const long attempts = counter("dp.bound_attempts");
  if (attempts == 0) return;
  const long pruned = counter("dp.bound_pruned_states");
  const double gathered = static_cast<double>(pruned + counter("dp.frontier_states"));
  const double runs = solves("dp.solve_cold_ns") + solves("dp.solve_warm_ns");
  std::printf("dp bound pruning:\n");
  std::printf("  %-52s %14ld\n", "dp.bound_pruned_states", pruned);
  std::printf("  %-52s %14ld\n", "dp.bound_attempts", attempts);
  std::printf("  %-52s %14.3f\n", "pruned share of gathered sources",
              gathered > 0.0 ? static_cast<double>(pruned) / gathered : 0.0);
  if (runs > 0.0)
    std::printf("  %-52s %14.2f\n", "sweeps per solve", static_cast<double>(attempts) / runs);
}

void print_snapshot(const StatFile& snap) {
  if (!snap.counters.empty()) {
    std::printf("counters:\n");
    for (const auto& [name, v] : snap.counters) std::printf("  %-52s %14ld\n", name.c_str(), v);
  }
  print_bound_pruning(snap);
  if (!snap.gauges.empty()) {
    std::printf("gauges:\n");
    for (const auto& [name, v] : snap.gauges) std::printf("  %-52s %14ld\n", name.c_str(), v);
  }
  if (!snap.histograms.empty()) {
    std::printf("histograms:%*s count          mean           p50           p90           p99           max\n",
                44, "");
    for (const auto& [name, h] : snap.histograms) {
      const double mean =
          h.count ? static_cast<double>(h.sum) / static_cast<double>(h.count) : 0.0;
      std::printf("  %-44s [%5s] %8llu %13.0f %13llu %13llu %13llu %13llu\n", name.c_str(),
                  h.unit.c_str(), static_cast<unsigned long long>(h.count), mean,
                  static_cast<unsigned long long>(bucket_percentile(h.buckets, 0.50)),
                  static_cast<unsigned long long>(bucket_percentile(h.buckets, 0.90)),
                  static_cast<unsigned long long>(bucket_percentile(h.buckets, 0.99)),
                  static_cast<unsigned long long>(h.max));
    }
  }
}

int print_diff(const StatFile& before, const StatFile& after) {
  std::printf("counters (delta):\n");
  for (const auto& [name, v] : after.counters) {
    const auto it = before.counters.find(name);
    const long delta = v - (it == before.counters.end() ? 0 : it->second);
    if (delta != 0) std::printf("  %-52s %+14ld\n", name.c_str(), delta);
  }
  std::printf("gauges (old -> new):\n");
  for (const auto& [name, v] : after.gauges) {
    const auto it = before.gauges.find(name);
    const long old = it == before.gauges.end() ? 0 : it->second;
    if (old != v) std::printf("  %-52s %10ld -> %ld\n", name.c_str(), old, v);
  }
  std::printf("histograms (delta distribution):%*s count          mean           p50           p90           p99\n",
              23, "");
  for (const auto& [name, h] : after.histograms) {
    const auto it = before.histograms.find(name);
    HistData delta = h;
    if (it != before.histograms.end()) {
      if (it->second.unit != h.unit) {
        std::fprintf(stderr, "evvo_stat: histogram %s changed unit (%s -> %s) between files\n",
                     name.c_str(), it->second.unit.c_str(), h.unit.c_str());
        return 2;
      }
      for (const auto& [idx, n] : it->second.buckets) delta.buckets[idx] -= n;
      if (delta.count < it->second.count || delta.sum < it->second.sum) {
        std::fprintf(stderr,
                     "evvo_stat: histogram %s shrank between files (was the registry reset?)\n",
                     name.c_str());
        return 2;
      }
      delta.count -= it->second.count;
      delta.sum -= it->second.sum;
    }
    if (delta.count == 0) continue;
    const double mean = static_cast<double>(delta.sum) / static_cast<double>(delta.count);
    std::printf("  %-44s [%5s] %8llu %13.0f %13llu %13llu %13llu\n", name.c_str(),
                delta.unit.c_str(), static_cast<unsigned long long>(delta.count), mean,
                static_cast<unsigned long long>(bucket_percentile(delta.buckets, 0.50)),
                static_cast<unsigned long long>(bucket_percentile(delta.buckets, 0.90)),
                static_cast<unsigned long long>(bucket_percentile(delta.buckets, 0.99)));
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: evvo_stat FILE                  pretty-print one telemetry snapshot\n"
               "       evvo_stat --diff BEFORE AFTER   subtract snapshots; histogram\n"
               "                                       percentiles are recomputed from the\n"
               "                                       bucket difference\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--help") != 0 && std::strcmp(argv[1], "-h") != 0) {
    const std::optional<StatFile> snap = load_file(argv[1]);
    if (!snap) return 2;
    print_snapshot(*snap);
    return 0;
  }
  if (argc == 4 && std::strcmp(argv[1], "--diff") == 0) {
    const std::optional<StatFile> before = load_file(argv[2]);
    if (!before) return 2;
    const std::optional<StatFile> after = load_file(argv[3]);
    if (!after) return 2;
    return print_diff(*before, *after);
  }
  return usage();
}
