// Scale ladder: wall-clock throughput of the calibrated cloud week as the
// divisor drops toward full paper scale (divisor 1).
//
// Each requested divisor replays the exact week once. The bench reports
// tasks/second, the share of the wall spent building the world before its
// first event (set-up), the run's outcome fingerprint (so a scale sweep
// doubles as a determinism check against the pinned goldens), the events
// the week executed (the work, a pure function of divisor and seed), the
// flow solver's work read from the run's observer (full solves, their
// water-filling steps, and completions kept or rescheduled by a solve —
// also pure functions of divisor and seed), the exact counts of
// kWorkCounters (task wakes by source class, swarm rng draws and
// fast-path rate updates), and the process peak RSS
// sampled after every rung of the ladder — the per-rung deltas are what
// tools/check_perf_regression.py budgets.
//
// Timing fidelity vs wall clock: with --workers=1 (the default) runs are
// timed back to back on an otherwise idle process, so the per-run seconds
// are honest. Higher worker counts fan the independent runs out over the
// parallel runner — total wall time drops but per-run timings include
// memory-bandwidth and scheduler contention, so the JSON flags the mode.
// The --full ladder extends to 10, and --divisors accepts 1 explicitly for
// the divisor-1 week.
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "obs/observer.h"
#include "run/parallel_runner.h"
#include "snapshot/world.h"
#include "util/args.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using namespace odr;

// Exact work counts each run reports: the JSON field, the table column and
// the observer counter. tools/check_perf_regression.py pins them.
struct WorkCounter {
  const char* field;
  const char* column;
  const char* counter;
};
constexpr WorkCounter kWorkCounters[] = {
    {"ticks_server", "server wakes", "proto.ticks.server"},
    {"ticks_swarm_seedless", "seedless wakes", "proto.ticks.swarm_seedless"},
    {"ticks_swarm_seeded", "seeded wakes", "proto.ticks.swarm_seeded"},
    {"swarm_draws", "swarm draws", "proto.swarm.draws"},
    {"fast_path_updates", "fast path", "net.flows.fast_path"},
};

struct ScaleRun {
  double divisor = 0.0;
  double wall_seconds = 0.0;   // set-up + run + finalize
  double setup_seconds = 0.0;  // building the world, before its first event
  std::size_t tasks = 0;
  std::uint64_t events = 0;  // simulator events executed by the week
  // Flow-solver work: full solves, their water-filling steps, and pending
  // completions a rate update kept or rescheduled.
  std::uint64_t solver_runs = 0;
  std::uint64_t solver_iterations = 0;
  std::uint64_t completions_kept = 0;
  std::uint64_t completions_rescheduled = 0;
  std::array<std::uint64_t, std::size(kWorkCounters)> work{};
  std::uint64_t fingerprint = 0;
  std::uint64_t peak_rss_bytes = 0;  // sampled right after the run
  double tasks_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(tasks) / wall_seconds : 0.0;
  }
};

ScaleRun run_week(double divisor, std::uint64_t seed) {
  obs::ObsConfig run_obs;
  run_obs.tracing = false;
  run_obs.dump_on_fault_fired = false;
  obs::ScopedObserver obs(run_obs);

  const analysis::ExperimentConfig config =
      analysis::make_scaled_config(divisor, seed);

  // run_cloud_replay's three steps, with the build timed on its own.
  const auto t0 = std::chrono::steady_clock::now();
  snapshot::WorldOptions options;
  options.checkpoint_period = 0;
  snapshot::CloudWorld world(config, std::move(options));
  const auto t_built = std::chrono::steady_clock::now();
  world.run();
  const std::uint64_t events = world.sim().executed_count();
  const analysis::CloudReplayResult result = std::move(world).finalize();
  const auto t1 = std::chrono::steady_clock::now();

  ScaleRun r;
  r.divisor = divisor;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.setup_seconds = std::chrono::duration<double>(t_built - t0).count();
  r.tasks = result.outcomes.size();
  r.events = events;
  obs::Registry& metrics = obs->metrics();
  r.solver_runs = metrics.counter("net.solver.runs").value();
  r.solver_iterations = metrics.counter("net.solver.iterations").value();
  r.completions_kept = metrics.counter("net.completions.kept").value();
  r.completions_rescheduled =
      metrics.counter("net.completions.rescheduled").value();
  for (std::size_t i = 0; i < r.work.size(); ++i) {
    r.work[i] = metrics.counter(kWorkCounters[i].counter).value();
  }
  r.fingerprint = analysis::outcome_fingerprint(result.outcomes);
  // Peak RSS is a process high-water mark: monotone over the ladder, so
  // the delta each rung adds on top of the cheaper rungs is attributable
  // to that rung (ladders run largest divisor first).
  r.peak_rss_bytes = run::peak_rss_bytes();
  return r;
}

// Strict: every token must be a full number in [1, kMaxDivisor] (the
// replay scales the measured system DOWN; divisor 1 is full scale and
// anything below — or empty, negative, zero, trailing garbage like "40x",
// or a divisor that leaves zero files — is a flag typo that previously
// produced a silent nonsense ladder or a crash).
std::vector<double> parse_divisors(const std::string& csv) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string tok =
        csv.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!tok.empty()) {
      double v = 0.0;
      std::size_t used = 0;
      try {
        v = std::stod(tok, &used);
      } catch (const std::exception&) {
        throw std::invalid_argument("divisor '" + tok + "' is not a number");
      }
      if (used != tok.size()) {
        throw std::invalid_argument("divisor '" + tok +
                                    "' has trailing characters");
      }
      if (!(v >= 1.0 && v <= analysis::kMaxDivisor)) {
        throw std::invalid_argument(
            "divisor '" + tok + "' out of range (need 1 <= divisor <= " +
            std::to_string(analysis::kMeasuredFiles) + ")");
      }
      out.push_back(v);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("Throughput ladder toward full-scale (divisor 1) replay.");
  args.flag("divisors", "4000,1000,400,100",
            "comma-separated scale divisors, largest (cheapest) first");
  args.flag("full", "0",
            "1 = extend the ladder with the expensive rungs 40 and 10 "
            "(the nightly configuration; divisor 1 stays explicit opt-in "
            "via --divisors=...,1)");
  args.flag("seed", "20151028", "workload seed");
  args.flag("workers", "1",
            "worker threads ACROSS runs (1 = sequential, honest per-run "
            "timings; 0 = hardware concurrency)");
  args.flag("json", "BENCH_perf_scale.json", "output JSON (empty to skip)");
  if (!args.parse(argc, argv)) return 1;

  std::vector<double> divisors;
  try {
    divisors = parse_divisors(args.get("divisors"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bad --divisors: %s\n", e.what());
    return 1;
  }
  if (divisors.empty()) {
    std::fprintf(stderr, "no divisors given\n");
    return 1;
  }
  if (args.get_int("full") != 0) {
    for (const double d : {40.0, 10.0}) {
      bool present = false;
      for (const double have : divisors) present = present || have == d;
      if (!present) divisors.push_back(d);
    }
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  run::ParallelOptions popts;
  popts.workers = static_cast<std::size_t>(args.get_int("workers", 0));
  const bool sequential = popts.workers == 1;

  // One run per divisor. Each job times itself with a steady clock so the
  // measurement excludes runner scheduling overhead.
  std::vector<std::function<ScaleRun()>> jobs;
  for (const double d : divisors) {
    jobs.push_back([=] { return run_week(d, seed); });
  }
  const auto batch0 = std::chrono::steady_clock::now();
  const std::vector<ScaleRun> runs = run::run_parallel(std::move(jobs), popts);
  const auto batch1 = std::chrono::steady_clock::now();
  const double batch_seconds =
      std::chrono::duration<double>(batch1 - batch0).count();
  const std::uint64_t rss = run::peak_rss_bytes();

  std::vector<std::string> header = {"divisor", "tasks", "events",
                                     "solves", "solve steps", "kept",
                                     "rescheduled"};
  for (const WorkCounter& c : kWorkCounters) header.push_back(c.column);
  header.insert(header.end(), {"wall s", "set-up s", "set-up share",
                               "tasks/s", "peak RSS MiB", "fingerprint"});
  TextTable table(std::move(header));
  for (const ScaleRun& r : runs) {
    char fp[24];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(r.fingerprint));
    std::vector<std::string> row = {
        TextTable::num(r.divisor, 0), std::to_string(r.tasks),
        std::to_string(r.events), std::to_string(r.solver_runs),
        std::to_string(r.solver_iterations),
        std::to_string(r.completions_kept),
        std::to_string(r.completions_rescheduled)};
    for (const std::uint64_t n : r.work) row.push_back(std::to_string(n));
    row.insert(row.end(),
               {TextTable::num(r.wall_seconds, 2),
                TextTable::num(r.setup_seconds, 3),
                TextTable::pct(r.wall_seconds > 0.0
                                   ? r.setup_seconds / r.wall_seconds
                                   : 0.0),
                TextTable::num(r.tasks_per_second(), 0),
                TextTable::num(static_cast<double>(r.peak_rss_bytes) /
                                   (1024.0 * 1024.0),
                               1),
                fp});
    table.add_row(std::move(row));
  }
  std::fputs(
      banner("Cloud-week throughput ladder (seed " + args.get("seed") + ")")
          .c_str(),
      stdout);
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nbatch wall: %.2f s over %zu runs (%s), peak RSS %.1f MiB\n",
              batch_seconds, runs.size(),
              sequential ? "sequential" : "parallel",
              static_cast<double>(rss) / (1024.0 * 1024.0));

  const std::string json_path = args.get("json");
  if (!json_path.empty()) {
    JsonWriter j;
    j.begin_object()
        .field("bench", "perf_scale")
        .field("seed", seed)
        .field("sequential_timings", sequential)
        .field("batch_wall_seconds", batch_seconds)
        .field("peak_rss_bytes", rss);
    j.key("runs").begin_array();
    for (const ScaleRun& r : runs) {
      char fp[24];
      std::snprintf(fp, sizeof(fp), "%016llx",
                    static_cast<unsigned long long>(r.fingerprint));
      j.begin_object()
          .field("divisor", r.divisor)
          // Every run is exact; tools/check_perf_regression.py gates runs
          // by this field.
          .field("mode", "exact")
          .field("tasks", static_cast<std::uint64_t>(r.tasks))
          .field("events", r.events)
          .field("solver_runs", r.solver_runs)
          .field("solver_iterations", r.solver_iterations)
          .field("completions_kept", r.completions_kept)
          .field("completions_rescheduled", r.completions_rescheduled);
      for (std::size_t i = 0; i < r.work.size(); ++i) {
        j.field(kWorkCounters[i].field, r.work[i]);
      }
      j.field("wall_seconds", r.wall_seconds)
          .field("setup_seconds", r.setup_seconds)
          .field("tasks_per_second", r.tasks_per_second())
          .field("peak_rss_bytes", r.peak_rss_bytes)
          .field("fingerprint", std::string(fp))
          .end_object();
    }
    j.end_array().end_object();
    if (j.write_file(json_path)) {
      std::printf("results written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    }
  }
  return 0;
}
