// Scenario-fuzz driver for the correctness harness (src/check).
//
// Generates seed-reproducible scenarios, runs the full invariant battery on
// each (differential oracle, SIMD/pruning identity, feasibility, window
// compliance, energy accounting, microsim replay), shrinks any failure to a
// minimal spec, and prints a one-line replay command. Exits nonzero when any
// scenario violates an invariant.
//
//   evvo_fuzz --count 200               # fuzz 200 seeded scenarios
//   evvo_fuzz --seed 41                 # re-run exactly one scenario
//   evvo_fuzz --inject window-shift     # prove the harness catches a fault
//   evvo_fuzz --replay-spec bad.spec    # re-check a shrunk spec file
//   evvo_fuzz --simd-only --count 100   # cheap vector-vs-scalar identity sweep
//   evvo_fuzz --bound-only --count 25   # bound-pruned vs exhaustive solve contract
//   evvo_fuzz --replan --count 100      # warm-vs-cold replan chains, exact and bound-pruned
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "check/replan_chain.hpp"
#include "check/scenario.hpp"
#include "check/shrink.hpp"
#include "common/clock.hpp"
#include "common/thread_pool.hpp"

namespace {

struct Options {
  std::size_t count = 50;
  std::uint64_t seed_start = 1;
  std::optional<std::uint64_t> single_seed;
  unsigned jobs = 0;  // 0 = hardware concurrency
  bool shrink = true;
  bool replay = true;
  bool reference = true;
  bool simd_only = false;  ///< strip everything but the simd-vs-scalar oracle
  bool bound_only = false; ///< strip everything but the bound-pruning contract
  bool replan = false;     ///< run perturbation-chain warm-vs-cold identity instead
  std::size_t replan_steps = 8;
  std::string inject = "none";
  std::string replay_spec;  // path: check this spec instead of generating
  std::string spec_out;     // path: write the (shrunk) failing spec here
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--count N] [--seed N] [--seed-start N] [--jobs N]\n"
               "          [--inject none|window-shift|accel-tamper|energy-tamper|cost-tamper|\n"
               "                    bound-inadmissible]\n"
               "          [--replay-spec FILE] [--spec-out FILE] [--no-shrink] [--no-replay]\n"
               "          [--no-reference] [--simd-only] [--bound-only] [--replan]\n"
               "          [--replan-steps N]\n",
               argv0);
  return 2;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--count") {
      const char* v = next();
      if (!v) return false;
      opt.count = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      opt.single_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seed-start") {
      const char* v = next();
      if (!v) return false;
      opt.seed_start = std::strtoull(v, nullptr, 10);
    } else if (arg == "--jobs") {
      const char* v = next();
      if (!v) return false;
      opt.jobs = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--inject") {
      const char* v = next();
      if (!v) return false;
      opt.inject = v;
    } else if (arg == "--replay-spec") {
      const char* v = next();
      if (!v) return false;
      opt.replay_spec = v;
    } else if (arg == "--spec-out") {
      const char* v = next();
      if (!v) return false;
      opt.spec_out = v;
    } else if (arg == "--no-shrink") {
      opt.shrink = false;
    } else if (arg == "--no-replay") {
      opt.replay = false;
    } else if (arg == "--no-reference") {
      opt.reference = false;
    } else if (arg == "--simd-only") {
      opt.simd_only = true;
    } else if (arg == "--bound-only") {
      opt.bound_only = true;
    } else if (arg == "--replan") {
      opt.replan = true;
    } else if (arg == "--replan-steps") {
      const char* v = next();
      if (!v) return false;
      opt.replan_steps = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage(argv[0]);

  evvo::check::CheckOptions check;
  try {
    check.inject = evvo::check::fault_from_name(opt.inject);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage(argv[0]);
  }
  // --replan: warm-vs-cold identity over perturbation chains, the incremental
  // solver's oracle (src/check/replan_chain.hpp) instead of the scenario
  // battery. Every seed runs two chains: exhaustive sweeps compared table by
  // table, and bound-pruned sweeps compared by cost and profile. Any
  // --inject value maps to the chains' tamper self-test.
  if (opt.replan) {
    evvo::check::ReplanChainOptions chain;
    chain.steps = opt.replan_steps;
    chain.tamper = check.inject != evvo::check::Fault::kNone;
    evvo::check::ReplanChainOptions bound_chain = chain;
    bound_chain.bound_pruning = true;
    if (opt.single_seed) {
      bool ok = true;
      for (const evvo::check::ReplanChainOptions& o : {chain, bound_chain}) {
        const evvo::check::ReplanChainReport report =
            evvo::check::check_replan_chain(*opt.single_seed, o);
        std::printf("%s", evvo::check::replan_report_to_string(report).c_str());
        ok = ok && report.ok();
      }
      return ok ? 0 : 1;
    }
    const unsigned chain_jobs =
        std::max(1u, opt.jobs ? opt.jobs : evvo::common::ThreadPool::resolve_threads(0) / 2);
    evvo::common::ThreadPool chain_pool(chain_jobs);
    std::atomic<std::size_t> chain_failures{0};
    std::atomic<std::size_t> spliced{0}, striped{0}, cold{0}, fallbacks{0}, relaxed{0}, total{0};
    std::mutex chain_io;
    const std::uint64_t t0 = evvo::common::now_ns();
    chain_pool.parallel_for(2 * opt.count, [&](std::size_t index) {
      const std::uint64_t seed = opt.seed_start + index / 2;
      const evvo::check::ReplanChainReport report =
          evvo::check::check_replan_chain(seed, index % 2 == 0 ? chain : bound_chain);
      spliced.fetch_add(report.spliced_steps, std::memory_order_relaxed);
      striped.fetch_add(report.striped_steps, std::memory_order_relaxed);
      cold.fetch_add(report.cold_steps, std::memory_order_relaxed);
      fallbacks.fetch_add(report.bound_fallbacks, std::memory_order_relaxed);
      relaxed.fetch_add(report.relaxed_layers, std::memory_order_relaxed);
      total.fetch_add(report.total_layers, std::memory_order_relaxed);
      if (report.ok()) return;
      chain_failures.fetch_add(1, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock(chain_io);
      std::fprintf(stderr, "%s", evvo::check::replan_report_to_string(report).c_str());
      std::fprintf(stderr, "replay: evvo_fuzz --replan --seed %llu\n",
                   static_cast<unsigned long long>(seed));
    });
    const double chain_s = evvo::common::seconds_between_ns(t0, evvo::common::now_ns());
    std::printf(
        "%zu replan chain(s) checked in %.1f s (%zu spliced / %zu striped / %zu cold steps, "
        "%zu bound fallbacks; warm relaxed %zu/%zu layers), %zu violation(s)\n",
        2 * opt.count, chain_s, spliced.load(), striped.load(), cold.load(), fallbacks.load(),
        relaxed.load(), total.load(), chain_failures.load());
    return chain_failures.load() == 0 ? 0 : 1;
  }

  check.run_replay = opt.replay;
  check.run_reference = opt.reference;
  if (opt.simd_only) {
    // Vector-vs-scalar identity sweep: skip the expensive oracles so many
    // scenarios fit in a CI timeslot. The pruned, feasibility, compliance,
    // and energy invariants still run - they are byproducts of the solves the
    // identity check needs anyway.
    check.run_reference = false;
    check.run_replay = false;
  }
  if (opt.bound_only) {
    // Bound-pruning contract sweep: the exhaustive solves it compares
    // against, and nothing else.
    check.run_reference = false;
    check.run_replay = false;
    check.run_simd_identity = false;
  }

  const auto handle_failure = [&](const evvo::check::ScenarioSpec& spec,
                                  const evvo::check::CheckReport& report) {
    std::fprintf(stderr, "%s", evvo::check::report_to_string(report).c_str());
    evvo::check::ScenarioSpec final_spec = spec;
    if (opt.shrink) {
      const evvo::check::ShrinkResult shrunk = evvo::check::shrink_failure(spec, check);
      if (shrunk.changed) {
        std::fprintf(stderr, "shrunk (%zu checks, invariant %s):\n%s", shrunk.checks_run,
                     shrunk.invariant.c_str(), evvo::check::spec_to_text(shrunk.spec).c_str());
        final_spec = shrunk.spec;
      }
    }
    if (!opt.spec_out.empty()) {
      evvo::check::save_spec(opt.spec_out, final_spec);
      std::fprintf(stderr, "spec written to %s\n", opt.spec_out.c_str());
    }
    if (spec.seed != 0) {
      std::fprintf(stderr, "replay: evvo_fuzz --seed %llu%s%s\n",
                   static_cast<unsigned long long>(spec.seed),
                   check.inject == evvo::check::Fault::kNone ? "" : " --inject ",
                   check.inject == evvo::check::Fault::kNone
                       ? ""
                       : evvo::check::fault_name(check.inject));
    } else if (!opt.spec_out.empty()) {
      std::fprintf(stderr, "replay: evvo_fuzz --replay-spec %s\n", opt.spec_out.c_str());
    }
  };

  const std::uint64_t t_begin = evvo::common::now_ns();

  // --replay-spec / --seed: single scenario, verbose.
  if (!opt.replay_spec.empty() || opt.single_seed) {
    evvo::check::ScenarioSpec spec;
    try {
      spec = !opt.replay_spec.empty() ? evvo::check::load_spec(opt.replay_spec)
                                      : evvo::check::generate_scenario(*opt.single_seed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot load scenario: %s\n", e.what());
      return 2;
    }
    const evvo::check::CheckReport report = evvo::check::check_scenario(spec, check);
    if (!report.ok()) {
      handle_failure(spec, report);
      return 1;
    }
    std::printf("%s", evvo::check::report_to_string(report).c_str());
    return 0;
  }

  // Fuzz run: parallelism over scenarios. Each worker runs whole scenarios,
  // and every solve inside one runs on that worker's thread.
  const unsigned jobs =
      std::max(1u, opt.jobs ? opt.jobs : evvo::common::ThreadPool::resolve_threads(0) / 2);
  evvo::common::ThreadPool outer(jobs);

  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> infeasible{0};
  std::mutex io_mutex;
  outer.parallel_for(opt.count, [&](std::size_t index) {
    const std::uint64_t seed = opt.seed_start + index;
    const evvo::check::ScenarioSpec spec = evvo::check::generate_scenario(seed);
    const evvo::check::CheckReport report = evvo::check::check_scenario(spec, check);
    if (!report.feasible) infeasible.fetch_add(1, std::memory_order_relaxed);
    if (report.ok()) return;
    failures.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(io_mutex);
    handle_failure(spec, report);
  });

  const double elapsed_s = evvo::common::seconds_between_ns(t_begin, evvo::common::now_ns());
  std::printf("%zu scenario(s) checked in %.1f s (%zu infeasible), %zu violation(s)\n", opt.count,
              elapsed_s, infeasible.load(), failures.load());
  return failures.load() == 0 ? 0 : 1;
}
