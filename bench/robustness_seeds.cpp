// Robustness check: headline metrics across random seeds.
//
// Every other bench runs at the fixed default seed; this one re-runs the
// cloud week at several seeds and reports the spread of the headline
// metrics, showing the reproduction is a property of the mechanisms, not
// of a lucky draw. A second sweep repeats every seed under the fixed
// mid-severity fault plan (fault::make_chaos_plan(2)) and writes a CSV of
// the per-seed metrics, quantifying how much variance the fault machinery
// itself adds on top of workload randomness.
//
// Every run is an independent world, so both sweeps go through
// run::run_parallel_settled: per-seed results are identical to a
// sequential execution and come back in submission order; only wall-clock
// changes. A replicate that throws does not abort the sweep — its failure
// is classified (analysis::classify_replay_failure) and the bench exits
// nonzero naming the failure kind for every bad seed. The first clean
// seed is also re-run at the end as a determinism pair: a fingerprint
// mismatch between the pair is reported as FingerprintMismatch and fails
// the bench the same way.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/failure_kind.h"
#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "fault/fault_plan.h"
#include "obs/observer.h"
#include "run/parallel_runner.h"
#include "snapshot/world.h"
#include "util/args.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

struct SeedMetrics {
  std::uint64_t seed = 0;
  double cache_hit = 0.0;
  double pre_failure = 0.0;
  double e2e_failure = 0.0;
  double unpopular_failure = 0.0;
  double fetch_median_kbps = 0.0;
  double impeded = 0.0;
  std::uint64_t fingerprint = 0;  // analysis::outcome_fingerprint
};

// One sweep run: the per-seed metrics plus the fault-accounting extras the
// CSV wants, and the run's own metrics registry (the ambient observer is
// thread-local; each job installs its own and the registries are merged on
// the main thread afterwards, in seed order).
struct SweepRun {
  SeedMetrics m;
  std::uint64_t rejections = 0;
  std::uint64_t shed = 0;
  std::uint64_t oversubscribed = 0;
  std::uint64_t vm_crashes = 0;
  std::uint64_t vm_retries = 0;
  std::uint64_t faults_fired = 0;
  odr::obs::Registry metrics;
};

odr::obs::ObsConfig run_obs_config() {
  odr::obs::ObsConfig c;
  c.tracing = false;
  // Fault dumps off: the level-2 sweep fires faults by design.
  c.dump_on_fault_fired = false;
  return c;
}

SweepRun run_clean(double divisor, std::uint64_t seed) {
  using namespace odr;
  obs::ScopedObserver obs(run_obs_config());
  const auto config = analysis::make_scaled_config(divisor, seed);
  const auto result = analysis::run_cloud_replay(config);
  const auto cdfs = analysis::collect_speed_delay(result.outcomes);
  const auto by_class = analysis::failure_by_class(result.outcomes);
  const auto breakdown = analysis::impeded_breakdown(
      result.outcomes, *result.users, kbps_to_rate(125.0));
  std::size_t failures = 0;
  for (const auto& o : result.outcomes) {
    if (!o.pre.success) ++failures;
  }
  SweepRun r;
  r.m.seed = config.seed;
  r.m.cache_hit = result.cache_hit_ratio;
  r.m.pre_failure = static_cast<double>(failures) / result.outcomes.size();
  r.m.unpopular_failure = by_class.ratio(workload::PopularityClass::kUnpopular);
  r.m.fetch_median_kbps = cdfs.fetch_speed_kbps.median();
  r.m.impeded = breakdown.impeded_fraction();
  r.m.fingerprint = analysis::outcome_fingerprint(result.outcomes);
  r.metrics = obs->metrics();
  return r;
}

SweepRun run_faulted(double divisor, std::uint64_t seed) {
  using namespace odr;
  obs::ScopedObserver obs(run_obs_config());
  auto config = analysis::make_scaled_config(divisor, seed);
  config.cloud.degraded_admission = true;
  config.fault_plan = fault::make_chaos_plan(2);
  const auto result = analysis::run_cloud_replay(config);
  const auto cdfs = analysis::collect_speed_delay(result.outcomes);
  std::size_t pre_failures = 0, e2e_failures = 0;
  for (const auto& o : result.outcomes) {
    if (!o.pre.success) ++pre_failures;
    if (!o.fetched) ++e2e_failures;
  }
  const double total = static_cast<double>(result.outcomes.size());
  SweepRun r;
  r.m.seed = seed;
  r.m.cache_hit = result.cache_hit_ratio;
  r.m.pre_failure = total > 0 ? pre_failures / total : 0.0;
  r.m.e2e_failure = total > 0 ? e2e_failures / total : 0.0;
  r.m.fetch_median_kbps = cdfs.fetch_speed_kbps.median();
  r.rejections = result.fetch_rejections;
  r.shed = result.shed_fetches;
  r.oversubscribed = result.oversubscribed_fetches;
  r.vm_crashes = result.vm_crashes;
  r.vm_retries = result.vm_retries;
  r.faults_fired = result.faults_fired;
  r.m.fingerprint = analysis::outcome_fingerprint(result.outcomes);
  r.metrics = obs->metrics();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace odr;
  ArgParser args("Headline-metric spread across seeds.");
  args.flag("divisor", "400", "scale divisor vs the measured system");
  args.flag("seeds", "5", "number of seeds");
  args.flag("workers", "0", "worker threads (0 = hardware concurrency)");
  args.flag("csv", "robustness_faults.csv",
            "output CSV for the faulted sweep (empty to skip)");
  args.flag("json", "BENCH_robustness_seeds.json",
            "output JSON for both sweeps (empty to skip)");
  if (!args.parse(argc, argv)) return 1;

  // Bench-wide metrics registry, snapshotted into the JSON output (counters
  // accumulate across both sweeps, merged from the per-run registries).
  obs::ScopedObserver bench(run_obs_config());

  const double divisor = args.get_double("divisor", 1.0, analysis::kMaxDivisor);
  const int n = static_cast<int>(args.get_int("seeds", 1, INT_MAX));
  run::ParallelOptions popts;
  popts.workers = static_cast<std::size_t>(args.get_int("workers", 0));

  // Both sweeps in one batch plus a determinism pair: 2n+1 independent
  // worlds. The last job repeats the first clean seed bit-for-bit; its
  // outcome fingerprint must match the first job's exactly.
  std::vector<std::function<SweepRun()>> jobs;
  std::vector<std::string> labels;
  for (int s = 0; s < n; ++s) {
    const std::uint64_t seed = 20151028 + 7919ull * s;
    jobs.push_back([divisor, seed] { return run_clean(divisor, seed); });
    labels.push_back("clean seed=" + std::to_string(seed));
  }
  for (int s = 0; s < n; ++s) {
    const std::uint64_t seed = 20151028 + 7919ull * s;
    jobs.push_back([divisor, seed] { return run_faulted(divisor, seed); });
    labels.push_back("faulted seed=" + std::to_string(seed));
  }
  const std::uint64_t rerun_seed = 20151028;
  jobs.push_back([divisor, rerun_seed] { return run_clean(divisor, rerun_seed); });
  labels.push_back("determinism-rerun seed=" + std::to_string(rerun_seed));

  // Settled, not rethrowing: one bad seed must not hide the state of the
  // others. Every failed replicate is reported with its taxonomy name.
  auto settled = run::run_parallel_settled(std::move(jobs), popts);
  int failed_replicates = 0;
  for (std::size_t i = 0; i < settled.size(); ++i) {
    if (settled[i].ok()) continue;
    ++failed_replicates;
    auto kind = analysis::ReplayFailureKind::kUnknown;
    std::string what = "unknown exception";
    try {
      std::rethrow_exception(settled[i].error);
    } catch (const std::exception& e) {
      kind = analysis::classify_replay_failure(e);
      what = e.what();
    } catch (...) {
    }
    const auto name = analysis::replay_failure_kind_name(kind);
    std::fprintf(stderr, "replicate FAILED: %s: [%.*s] %s\n", labels[i].c_str(),
                 static_cast<int>(name.size()), name.data(), what.c_str());
  }
  if (failed_replicates > 0) {
    std::fprintf(stderr, "robustness_seeds: %d of %zu replicate(s) failed\n",
                 failed_replicates, settled.size());
    return 1;
  }
  std::vector<SweepRun> all;
  all.reserve(settled.size());
  for (auto& s : settled) all.push_back(std::move(*s.value));
  for (const SweepRun& r : all) bench->metrics().merge_from(r.metrics);

  EmpiricalCdf hit, failure, unpopular_failure, fetch_median, impeded;
  std::vector<SeedMetrics> clean_runs;
  for (int s = 0; s < n; ++s) {
    const SeedMetrics& m = all[s].m;
    clean_runs.push_back(m);
    hit.add(m.cache_hit);
    failure.add(m.pre_failure);
    unpopular_failure.add(m.unpopular_failure);
    fetch_median.add(m.fetch_median_kbps);
    impeded.add(m.impeded);
  }

  auto row = [](const std::string& name, const std::string& paper,
                const EmpiricalCdf& c, bool pct) {
    auto fmt = [&](double v) {
      return pct ? TextTable::pct(v) : TextTable::num(v, 0);
    };
    return std::vector<std::string>{name, paper, fmt(c.min()),
                                    fmt(c.median()), fmt(c.max())};
  };
  TextTable table({"metric", "paper", "min", "median", "max"});
  table.add_row(row("cache hit ratio", "89%", hit, true));
  table.add_row(row("overall pre-dl failure", "8.7%", failure, true));
  table.add_row(
      row("unpopular failure", "13%", unpopular_failure, true));
  table.add_row(row("fetch median (KBps)", "287", fetch_median, false));
  table.add_row(row("impeded fetches", "28%", impeded, true));
  std::fputs(banner("Headline metrics across " + std::to_string(n) +
                    " seeds (1/" + args.get("divisor") + " scale)")
                 .c_str(),
             stdout);
  std::fputs(table.render().c_str(), stdout);

  // --- the same seeds under the fixed mid-severity fault plan ---------------
  EmpiricalCdf f_hit, f_failure, f_e2e, f_fetch_median;
  std::vector<SeedMetrics> faulted_runs;
  const std::string csv_path = args.get("csv");
  std::FILE* csv = csv_path.empty() ? nullptr : std::fopen(csv_path.c_str(), "w");
  if (csv != nullptr) {
    std::fputs(
        "seed,cache_hit,pre_failure,e2e_failure,fetch_median_kbps,"
        "rejections,shed,oversubscribed,vm_crashes,vm_retries,faults_fired\n",
        csv);
  }
  for (int s = 0; s < n; ++s) {
    const SweepRun& r = all[static_cast<std::size_t>(n) + s];
    f_hit.add(r.m.cache_hit);
    f_failure.add(r.m.pre_failure);
    f_e2e.add(r.m.e2e_failure);
    f_fetch_median.add(r.m.fetch_median_kbps);
    faulted_runs.push_back(r.m);
    if (csv != nullptr) {
      std::fprintf(csv, "%llu,%.6f,%.6f,%.6f,%.1f,%llu,%llu,%llu,%llu,%llu,%llu\n",
                   static_cast<unsigned long long>(r.m.seed),
                   r.m.cache_hit, r.m.pre_failure, r.m.e2e_failure,
                   r.m.fetch_median_kbps,
                   static_cast<unsigned long long>(r.rejections),
                   static_cast<unsigned long long>(r.shed),
                   static_cast<unsigned long long>(r.oversubscribed),
                   static_cast<unsigned long long>(r.vm_crashes),
                   static_cast<unsigned long long>(r.vm_retries),
                   static_cast<unsigned long long>(r.faults_fired));
    }
  }
  if (csv != nullptr) std::fclose(csv);

  TextTable faulted({"metric", "min", "median", "max"});
  auto frow = [](const std::string& name, const EmpiricalCdf& c, bool pct) {
    auto fmt = [&](double v) {
      return pct ? TextTable::pct(v) : TextTable::num(v, 0);
    };
    return std::vector<std::string>{name, fmt(c.min()), fmt(c.median()),
                                    fmt(c.max())};
  };
  faulted.add_row(frow("cache hit ratio", f_hit, true));
  faulted.add_row(frow("overall pre-dl failure", f_failure, true));
  faulted.add_row(frow("e2e failure", f_e2e, true));
  faulted.add_row(frow("fetch median (KBps)", f_fetch_median, false));
  std::fputs(banner("Same seeds under the mid-severity fault plan (level 2)")
                 .c_str(),
             stdout);
  std::fputs(faulted.render().c_str(), stdout);
  if (csv != nullptr) {
    std::printf("\nper-seed fault-sweep metrics written to %s\n",
                csv_path.c_str());
  }

  // --- determinism pair: first clean seed, run twice -----------------------
  const SeedMetrics& first = all.front().m;
  const SeedMetrics& rerun = all.back().m;
  const bool deterministic = first.fingerprint == rerun.fingerprint;
  std::printf("\ndeterminism: seed %llu fingerprint %016llx vs rerun %016llx: %s\n",
              static_cast<unsigned long long>(first.seed),
              static_cast<unsigned long long>(first.fingerprint),
              static_cast<unsigned long long>(rerun.fingerprint),
              deterministic ? "PASS" : "FAIL");
  if (!deterministic) {
    const auto name = analysis::replay_failure_kind_name(
        analysis::ReplayFailureKind::kFingerprintMismatch);
    std::fprintf(stderr,
                 "robustness_seeds: [%.*s] same-seed rerun produced a "
                 "different outcome fingerprint\n",
                 static_cast<int>(name.size()), name.data());
  }

  const std::string json_path = args.get("json");
  if (!json_path.empty()) {
    auto emit = [](JsonWriter& j, const std::vector<SeedMetrics>& runs,
                   bool faulted_sweep) {
      j.begin_array();
      for (const auto& m : runs) {
        char fp[24];
        std::snprintf(fp, sizeof(fp), "%016llx",
                      static_cast<unsigned long long>(m.fingerprint));
        j.begin_object()
            .field("seed", m.seed)
            .field("fingerprint", std::string(fp))
            .field("cache_hit", m.cache_hit)
            .field("pre_failure", m.pre_failure)
            .field("fetch_median_kbps", m.fetch_median_kbps);
        if (faulted_sweep) {
          j.field("e2e_failure", m.e2e_failure);
        } else {
          j.field("unpopular_failure", m.unpopular_failure)
              .field("impeded", m.impeded);
        }
        j.end_object();
      }
      j.end_array();
    };
    JsonWriter j;
    j.begin_object()
        .field("bench", "robustness_seeds")
        .field("divisor", divisor)
        .field("seeds", static_cast<std::int64_t>(n));
    j.key("clean");
    emit(j, clean_runs, false);
    j.key("faulted_plan2");
    emit(j, faulted_runs, true);
    {
      char fp_a[24], fp_b[24];
      std::snprintf(fp_a, sizeof(fp_a), "%016llx",
                    static_cast<unsigned long long>(first.fingerprint));
      std::snprintf(fp_b, sizeof(fp_b), "%016llx",
                    static_cast<unsigned long long>(rerun.fingerprint));
      j.key("determinism")
          .begin_object()
          .field("seed", first.seed)
          .field("fingerprint", std::string(fp_a))
          .field("rerun_fingerprint", std::string(fp_b))
          .field("pass", deterministic)
          .end_object();
    }
    j.key("metrics");
    bench->write_metrics_json(j);
    j.end_object();
    if (j.write_file(json_path)) {
      std::printf("results written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    }
  }
  return deterministic ? 0 : 1;
}
