// Chaos harness: the calibrated cloud week under escalating fault plans.
//
// Replays the same one-week workload (same seed, byte-identical request
// stream) under the canonical chaos plans of fault::make_chaos_plan and
// reports how far each headline metric drifts from the fault-free
// baseline. The severe plan (level 3) is the acceptance scenario: 10%/h
// pre-downloader VM crashes all week plus a 6-hour outage of the Telecom
// upload cluster. With retry/backoff, failover and degraded-mode
// admission in place, the week must degrade gracefully:
//   - end-to-end failure ratio stays within 2x the fault-free baseline;
//   - zero highly-popular fetches are rejected;
//   - the run is deterministic (two executions are byte-identical).
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "analysis/failure_kind.h"
#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "analysis/report.h"
#include "core/strategy.h"
#include "fault/fault_plan.h"
#include "net/isp.h"
#include "obs/observer.h"
#include "proto/protocol.h"
#include "run/parallel_runner.h"
#include "serve/service_loop.h"
#include "snapshot/world.h"
#include "util/args.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using namespace odr;

struct RunMetrics {
  std::string label;
  double cache_hit = 0.0;
  double pre_failure = 0.0;   // pre-download stage failures
  double e2e_failure = 0.0;   // task did not end with a completed fetch
  double fetch_median_kbps = 0.0;
  std::uint64_t rejections = 0;
  std::uint64_t highly_popular_rejections = 0;
  std::uint64_t shed = 0;
  std::uint64_t oversubscribed = 0;
  std::uint64_t vm_crashes = 0;
  std::uint64_t vm_retries = 0;
  std::uint64_t faults_fired = 0;
  std::uint64_t fingerprint = 0;  // analysis::outcome_fingerprint
};

// One replay = one job on the parallel runner. Each job installs its own
// observer (the ambient pointer is thread-local), so its counters and
// calibration never mix with a concurrently running plan; the registry is
// returned by value and merged on the main thread in plan order.
struct RunResult {
  RunMetrics m;
  obs::CalibrationReport calibration;
  obs::Registry metrics;
};

RunResult run_once(double divisor, std::uint64_t seed, int plan_level,
                   const std::string& label) {
  obs::ObsConfig run_obs;
  run_obs.tracing = false;
  run_obs.dump_on_fault_fired = false;
  // Spans + calibration ride along: the monitor resets per replay, so the
  // report returned by the baseline job is the fault-free one
  // (informational here — chaos plans legitimately drift the marginals).
  run_obs.spans = true;
  run_obs.calibration = true;
  obs::ScopedObserver obs(run_obs);

  analysis::ExperimentConfig config = analysis::make_scaled_config(divisor, seed);
  // The chaos harness always runs with the degradation policy on (it is a
  // no-op while every cluster is healthy and admission has headroom).
  config.cloud.degraded_admission = true;
  config.fault_plan = fault::make_chaos_plan(plan_level);

  const analysis::CloudReplayResult result = analysis::run_cloud_replay(config);
  const analysis::SpeedDelayCdfs cdfs =
      analysis::collect_speed_delay(result.outcomes);

  RunMetrics m;
  m.label = label;
  m.cache_hit = result.cache_hit_ratio;
  std::size_t pre_failures = 0, e2e_failures = 0;
  for (const auto& o : result.outcomes) {
    if (!o.pre.success) ++pre_failures;
    if (!o.fetched) ++e2e_failures;
  }
  const std::uint64_t h = analysis::outcome_fingerprint(result.outcomes);
  const double n = static_cast<double>(result.outcomes.size());
  m.pre_failure = n > 0 ? static_cast<double>(pre_failures) / n : 0.0;
  m.e2e_failure = n > 0 ? static_cast<double>(e2e_failures) / n : 0.0;
  m.fetch_median_kbps = cdfs.fetch_speed_kbps.median();
  m.rejections = result.fetch_rejections;
  m.highly_popular_rejections = result.rejections_by_class[static_cast<std::size_t>(
      workload::PopularityClass::kHighlyPopular)];
  m.shed = result.shed_fetches;
  m.oversubscribed = result.oversubscribed_fetches;
  m.vm_crashes = result.vm_crashes;
  m.vm_retries = result.vm_retries;
  m.faults_fired = result.faults_fired;
  m.fingerprint = h;

  RunResult r;
  r.m = std::move(m);
  if (obs->calibration() != nullptr) r.calibration = obs->calibration()->report();
  r.metrics = obs->metrics();
  return r;
}

// --- hedged family -----------------------------------------------------------
//
// The same chaos plans again, but routed by HedgedFetch through the full
// §6 executor testbed (cloud + smart APs + direct), with circuit breakers
// on and every speculative clone charged to the shared retry/hedge
// budget. The severe plan is the acceptance scenario: every task must
// settle with a classified outcome — a failure surfacing the internal
// kAborted loser-cancel cause (or no cause at all) is a hedging bug, not
// an infrastructure fault — and the week must be deterministic across
// reruns even though every hedged pair races two backends.
struct HedgedMetrics {
  std::string label;
  std::size_t tasks = 0;
  double e2e_failure = 0.0;  // task did not end in success
  std::uint64_t pairs = 0;
  std::uint64_t secondary_wins = 0;
  std::uint64_t both_failed = 0;
  std::uint64_t budget_denied = 0;
  std::uint64_t cancelled_clones = 0;
  double wasted_gb = 0.0;
  std::uint64_t vm_budget_denied = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t faults_fired = 0;
  std::uint64_t unclassified = 0;  // failed outcomes without a usable cause
  std::uint64_t fingerprint = 0;   // analysis::exec_outcome_fingerprint
};

struct HedgedResult {
  HedgedMetrics m;
  obs::Registry metrics;
};

HedgedResult run_hedged_once(double divisor, std::uint64_t seed,
                             int plan_level, const std::string& label) {
  obs::ObsConfig run_obs;
  run_obs.tracing = false;
  run_obs.dump_on_fault_fired = false;
  obs::ScopedObserver obs(run_obs);

  analysis::StrategyReplayConfig config;
  config.experiment = analysis::make_scaled_config(divisor, seed);
  config.experiment.cloud.degraded_admission = true;
  config.experiment.cloud.retry_budget_enabled = true;
  config.experiment.fault_plan = fault::make_chaos_plan(plan_level);
  config.strategy = core::Strategy::kHedged;
  config.use_circuit_breakers = true;

  const analysis::StrategyReplayResult result =
      analysis::run_strategy_replay(config);

  HedgedMetrics m;
  m.label = label;
  m.tasks = result.outcomes.size();
  std::size_t failures = 0;
  for (const auto& o : result.outcomes) {
    if (o.success) continue;
    ++failures;
    if (o.cause == proto::FailureCause::kNone ||
        o.cause == proto::FailureCause::kAborted) {
      ++m.unclassified;
    }
  }
  const double n = static_cast<double>(m.tasks);
  m.e2e_failure = n > 0 ? static_cast<double>(failures) / n : 0.0;
  m.pairs = result.hedge_pairs;
  m.secondary_wins = result.hedge_secondary_wins;
  m.both_failed = result.hedge_both_failed;
  m.budget_denied = result.hedge_budget_denied;
  m.cancelled_clones = result.hedge_cancelled_clones;
  m.wasted_gb = static_cast<double>(result.hedge_wasted_bytes) / 1e9;
  m.vm_budget_denied = result.vm_retry_budget_denied;
  m.reroutes = result.reroutes;
  m.faults_fired = result.faults_fired;
  m.fingerprint = analysis::exec_outcome_fingerprint(result.outcomes);

  HedgedResult r;
  r.m = std::move(m);
  r.metrics = obs->metrics();
  return r;
}

// --- serve family ------------------------------------------------------------
//
// Live-service mode under compound stress: an open-loop flash crowd (6x
// surge concentrated on one hot file) with a regional ISP outage dropped
// into the middle of it — the Telecom upload cluster goes dark for three
// hours while the surge is still running. The acceptance pair: every
// settled task must carry a classified outcome (admission sheds and
// backpressure drops are counted separately and are NOT failures of this
// gate), and the outage run must reproduce its admission/drop/latency
// fingerprint bit-identically.
struct ServeMetrics {
  std::string label;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t dropped = 0;
  double e2e_failure = 0.0;  // failed / completed
  double p99_seconds = 0.0;
  std::uint64_t violation_windows = 0;
  std::uint64_t hedge_pairs = 0;
  std::uint64_t budget_denied = 0;
  std::uint64_t faults_fired = 0;
  std::uint64_t unclassified = 0;
  std::uint64_t fingerprint = 0;
  // Windowed telemetry (zero unless the run armed the telemetry plane).
  bool telemetry = false;
  std::uint64_t telemetry_windows = 0;
  std::uint64_t telemetry_violations = 0;
  std::int64_t first_violation_window = -1;
};

struct ServeRunResult {
  ServeMetrics m;
  obs::Registry metrics;
};

// `telemetry` arms admission-verdict spans and the windowed metrics
// exporter on this run. The determinism rerun keeps it OFF, so the
// fingerprint-equality gate below doubles as proof that the telemetry
// plane is invisible to the simulation even while faults fire mid-surge.
ServeRunResult run_serve_once(double divisor, std::uint64_t seed, bool outage,
                              bool telemetry, const std::string& label) {
  obs::ObsConfig run_obs;
  run_obs.tracing = false;
  run_obs.dump_on_fault_fired = false;
  if (telemetry) {
    run_obs.metrics_ts = true;
    run_obs.spans = true;
  }
  obs::ScopedObserver obs(run_obs);

  serve::ServeConfig cfg;
  cfg.world.experiment = analysis::make_scaled_config(divisor, seed);
  cfg.world.experiment.cloud.degraded_admission = true;
  cfg.world.experiment.cloud.retry_budget_enabled = true;
  cfg.world.strategy = core::Strategy::kHedged;
  cfg.world.use_circuit_breakers = true;

  // Half a day of service; rate scales with the world (the cloud uplink
  // shrinks 1/divisor, so the saturating rate does too).
  const SimTime duration = 12 * kHour;
  cfg.traffic.phases.push_back({duration, 40.0 / divisor});
  cfg.traffic.diurnal = true;
  cfg.traffic.diurnal_shape.duration = duration;
  cfg.traffic.diurnal_shape.daily_growth = 0.0;
  cfg.traffic.flash.start = 4 * kHour;
  cfg.traffic.flash.duration = 4 * kHour;
  cfg.traffic.flash.rate_multiplier = 6.0;
  cfg.traffic.flash.hot_file_fraction = 0.5;
  cfg.traffic.flash.hot_file = 0;

  if (outage) {
    fault::FaultSpec o;
    o.kind = fault::FaultKind::kUploadClusterOutage;
    o.start = 5 * kHour;      // one hour into the surge
    o.duration = 3 * kHour;   // dark until the surge's last hour
    o.isp = net::Isp::kTelecom;
    cfg.world.experiment.fault_plan.add(o);
  }

  serve::ServiceLoop loop(cfg);
  const serve::ServeResult res = loop.run();

  ServeMetrics m;
  m.label = label;
  m.offered = res.offered;
  m.admitted = res.admitted;
  m.shed = res.shed_unpopular;
  m.dropped = res.dropped_full;
  m.e2e_failure =
      res.completed > 0
          ? static_cast<double>(res.failed) / static_cast<double>(res.completed)
          : 0.0;
  m.p99_seconds = res.slo.p99_seconds;
  m.violation_windows = res.slo.violation_windows;
  m.hedge_pairs = res.hedge_pairs;
  m.budget_denied = res.budget_denied;
  m.faults_fired = res.faults_fired;
  m.unclassified = res.unclassified_failures;
  m.fingerprint = res.fingerprint;
  if (const obs::MetricsTimeSeries* mts = obs->metrics_ts()) {
    m.telemetry = true;
    m.telemetry_windows = static_cast<std::uint64_t>(mts->rows().size());
    m.telemetry_violations = mts->violation_windows();
    m.first_violation_window = mts->first_violation_window();
  }

  ServeRunResult r;
  r.m = std::move(m);
  r.metrics = obs->metrics();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "Calibrated cloud week under escalating fault plans (chaos harness).");
  args.flag("divisor", "400", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "workload seed");
  args.flag("json", "BENCH_chaos_week.json", "output JSON (empty to skip)");
  if (!args.parse(argc, argv)) return 1;

  const double divisor = args.get_double("divisor", 1.0, analysis::kMaxDivisor);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

  // Bench-wide metrics registry, snapshotted into the JSON output. Fault
  // dumps are off because every chaos plan fires faults by design; the
  // flight recorder still keeps the tail of events for a bench-abort dump.
  // The simulation work all happens inside the per-plan jobs (each with
  // its own observer); their registries are merged into this one below.
  obs::ObsConfig bench_obs;
  bench_obs.tracing = false;
  bench_obs.dump_on_fault_fired = false;
  obs::ScopedObserver bench(bench_obs);

  // All five replays (four plans + the determinism re-run) are independent
  // worlds at the same seed; run them concurrently. Results come back in
  // submission order, and each run's outcome is identical to a sequential
  // execution — parallelism here only buys wall-clock time.
  const struct {
    int level;
    const char* label;
  } kPlans[] = {{0, "baseline"},
                {1, "mild"},
                {2, "moderate"},
                {3, "severe"},
                {3, "severe(rerun)"}};
  std::vector<std::function<RunResult()>> jobs;
  for (const auto& p : kPlans) {
    const int level = p.level;
    const std::string label = p.label;
    jobs.push_back(
        [divisor, seed, level, label] { return run_once(divisor, seed, level, label); });
  }
  // Settled, not rethrowing: a plan that dies mid-replay is reported with
  // its failure-kind name instead of aborting the whole matrix unlabeled.
  const auto report_settled_failure = [](const char* label,
                                         std::exception_ptr error) {
    auto kind = analysis::ReplayFailureKind::kUnknown;
    std::string what = "unknown exception";
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      kind = analysis::classify_replay_failure(e);
      what = e.what();
    } catch (...) {
    }
    const auto name = analysis::replay_failure_kind_name(kind);
    std::fprintf(stderr, "plan FAILED: %s: [%.*s] %s\n", label,
                 static_cast<int>(name.size()), name.data(), what.c_str());
  };
  auto settled = run::run_parallel_settled(std::move(jobs));
  int failed_plans = 0;
  for (std::size_t i = 0; i < settled.size(); ++i) {
    if (settled[i].ok()) continue;
    ++failed_plans;
    report_settled_failure(kPlans[i].label, settled[i].error);
  }
  if (failed_plans > 0) {
    std::fprintf(stderr, "chaos_week: %d of %zu replay(s) failed\n",
                 failed_plans, settled.size());
    return 1;
  }
  std::vector<RunResult> all;
  all.reserve(settled.size());
  for (auto& s : settled) all.push_back(std::move(*s.value));
  for (const RunResult& r : all) bench->metrics().merge_from(r.metrics);

  // The hedged family: the same plans with HedgedFetch on (plus a severe
  // rerun for determinism). A second batch rather than one mixed batch
  // only because the result types differ; each job still installs its own
  // thread-local observer.
  std::vector<std::function<HedgedResult()>> hedged_jobs;
  for (const auto& p : kPlans) {
    const int level = p.level;
    const std::string label = p.label;
    hedged_jobs.push_back([divisor, seed, level, label] {
      return run_hedged_once(divisor, seed, level, label);
    });
  }
  auto hedged_settled = run::run_parallel_settled(std::move(hedged_jobs));
  int hedged_failed_plans = 0;
  for (std::size_t i = 0; i < hedged_settled.size(); ++i) {
    if (hedged_settled[i].ok()) continue;
    ++hedged_failed_plans;
    report_settled_failure((std::string("hedged/") + kPlans[i].label).c_str(),
                           hedged_settled[i].error);
  }
  if (hedged_failed_plans > 0) {
    std::fprintf(stderr, "chaos_week: %d of %zu hedged replay(s) failed\n",
                 hedged_failed_plans, hedged_settled.size());
    return 1;
  }
  std::vector<HedgedResult> hedged_all;
  hedged_all.reserve(hedged_settled.size());
  for (auto& s : hedged_settled) hedged_all.push_back(std::move(*s.value));
  for (const HedgedResult& r : hedged_all) {
    bench->metrics().merge_from(r.metrics);
  }

  // The serve family: open-loop flash crowd, with and without the
  // regional ISP outage, plus the determinism rerun of the outage run.
  const struct {
    bool outage;
    bool telemetry;
    const char* label;
  } kServeRuns[] = {{false, true, "flash"},
                    {true, true, "flash+outage"},
                    {true, false, "flash+outage(rerun)"}};
  std::vector<std::function<ServeRunResult()>> serve_jobs;
  for (const auto& s : kServeRuns) {
    const bool outage = s.outage;
    const bool telemetry = s.telemetry;
    const std::string label = s.label;
    serve_jobs.push_back([divisor, seed, outage, telemetry, label] {
      return run_serve_once(divisor, seed, outage, telemetry, label);
    });
  }
  auto serve_settled = run::run_parallel_settled(std::move(serve_jobs));
  int serve_failed_runs = 0;
  for (std::size_t i = 0; i < serve_settled.size(); ++i) {
    if (serve_settled[i].ok()) continue;
    ++serve_failed_runs;
    report_settled_failure(
        (std::string("serve/") + kServeRuns[i].label).c_str(),
        serve_settled[i].error);
  }
  if (serve_failed_runs > 0) {
    std::fprintf(stderr, "chaos_week: %d of %zu serve run(s) failed\n",
                 serve_failed_runs, serve_settled.size());
    return 1;
  }
  std::vector<ServeRunResult> serve_all;
  serve_all.reserve(serve_settled.size());
  for (auto& s : serve_settled) serve_all.push_back(std::move(*s.value));
  for (const ServeRunResult& r : serve_all) {
    bench->metrics().merge_from(r.metrics);
  }

  std::vector<RunMetrics> runs;
  for (std::size_t i = 0; i + 1 < all.size(); ++i) runs.push_back(all[i].m);
  const obs::CalibrationReport baseline_calibration = all.front().calibration;
  // Determinism check: the acceptance plan again, same seed.
  const RunMetrics rerun = all.back().m;

  const RunMetrics& base = runs.front();
  TextTable table({"plan", "e2e fail", "pre fail", "hit", "fetch med KBps",
                   "rej", "hp-rej", "shed", "oversub", "crashes", "retries",
                   "faults"});
  for (const auto& m : runs) {
    table.add_row({m.label, TextTable::pct(m.e2e_failure),
                   TextTable::pct(m.pre_failure), TextTable::pct(m.cache_hit),
                   TextTable::num(m.fetch_median_kbps, 0),
                   std::to_string(m.rejections),
                   std::to_string(m.highly_popular_rejections),
                   std::to_string(m.shed), std::to_string(m.oversubscribed),
                   std::to_string(m.vm_crashes), std::to_string(m.vm_retries),
                   std::to_string(m.faults_fired)});
  }
  std::fputs(banner("Chaos week: headline drift vs fault-free baseline (1/" +
                    args.get("divisor") + " scale)")
                 .c_str(),
             stdout);
  std::fputs(table.render().c_str(), stdout);
  std::fputs(analysis::calibration_table(baseline_calibration).c_str(),
             stdout);

  std::vector<HedgedMetrics> hedged_runs;
  for (std::size_t i = 0; i + 1 < hedged_all.size(); ++i) {
    hedged_runs.push_back(hedged_all[i].m);
  }
  const HedgedMetrics hedged_rerun = hedged_all.back().m;
  TextTable hedged_table({"plan", "e2e fail", "pairs", "2nd wins",
                          "both-fail", "budget denied", "cancelled",
                          "wasted (GB)", "vm denied", "reroutes", "faults",
                          "unclassified"});
  for (const auto& m : hedged_runs) {
    hedged_table.add_row(
        {m.label, TextTable::pct(m.e2e_failure), std::to_string(m.pairs),
         std::to_string(m.secondary_wins), std::to_string(m.both_failed),
         std::to_string(m.budget_denied), std::to_string(m.cancelled_clones),
         TextTable::num(m.wasted_gb, 2), std::to_string(m.vm_budget_denied),
         std::to_string(m.reroutes), std::to_string(m.faults_fired),
         std::to_string(m.unclassified)});
  }
  std::fputs(banner("HedgedFetch under the same plans (breakers on, "
                    "shared retry/hedge budget on)")
                 .c_str(),
             stdout);
  std::fputs(hedged_table.render().c_str(), stdout);

  std::vector<ServeMetrics> serve_runs;
  for (std::size_t i = 0; i + 1 < serve_all.size(); ++i) {
    serve_runs.push_back(serve_all[i].m);
  }
  const ServeMetrics serve_rerun = serve_all.back().m;
  TextTable serve_table({"run", "offered", "admit", "shed", "drop",
                         "e2e fail", "p99 s", "viol", "hedges", "denied",
                         "faults", "unclassified"});
  for (const auto& m : serve_runs) {
    serve_table.add_row(
        {m.label, std::to_string(m.offered), std::to_string(m.admitted),
         std::to_string(m.shed), std::to_string(m.dropped),
         TextTable::pct(m.e2e_failure), TextTable::num(m.p99_seconds, 1),
         std::to_string(m.violation_windows), std::to_string(m.hedge_pairs),
         std::to_string(m.budget_denied), std::to_string(m.faults_fired),
         std::to_string(m.unclassified)});
  }
  std::fputs(banner("Live service: flash crowd, then a regional ISP outage "
                    "mid-surge")
                 .c_str(),
             stdout);
  std::fputs(serve_table.render().c_str(), stdout);

  // --- acceptance checks on the severe plan --------------------------------
  const RunMetrics& severe = runs.back();
  const bool failure_ok = severe.e2e_failure <= 2.0 * base.e2e_failure;
  const bool hp_ok = severe.highly_popular_rejections == 0;
  const bool deterministic = severe.fingerprint == rerun.fingerprint;
  std::printf("\nacceptance: e2e failure %.2f%% vs baseline %.2f%% (<= 2x): %s\n",
              100.0 * severe.e2e_failure, 100.0 * base.e2e_failure,
              failure_ok ? "PASS" : "FAIL");
  std::printf("acceptance: highly-popular rejections == 0: %s (%llu)\n",
              hp_ok ? "PASS" : "FAIL",
              static_cast<unsigned long long>(severe.highly_popular_rejections));
  std::printf("acceptance: deterministic re-run (fingerprint %016llx): %s\n",
              static_cast<unsigned long long>(severe.fingerprint),
              deterministic ? "PASS" : "FAIL");
  if (!deterministic) {
    const auto name = analysis::replay_failure_kind_name(
        analysis::ReplayFailureKind::kFingerprintMismatch);
    std::fprintf(stderr,
                 "chaos_week: [%.*s] severe plan rerun produced fingerprint "
                 "%016llx, expected %016llx — bisect with "
                 "tools/odr_bisect\n",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<unsigned long long>(rerun.fingerprint),
                 static_cast<unsigned long long>(severe.fingerprint));
  }

  // --- acceptance checks on the hedged family ------------------------------
  std::uint64_t hedged_unclassified = 0;
  for (const auto& m : hedged_runs) hedged_unclassified += m.unclassified;
  const bool hedged_classified = hedged_unclassified == 0;
  const HedgedMetrics& hedged_severe = hedged_runs.back();
  const bool hedged_deterministic =
      hedged_severe.fingerprint == hedged_rerun.fingerprint;
  std::printf("acceptance: hedged plans settle every task classified: %s "
              "(%llu unclassified)\n",
              hedged_classified ? "PASS" : "FAIL",
              static_cast<unsigned long long>(hedged_unclassified));
  std::printf("acceptance: deterministic hedged severe re-run (fingerprint "
              "%016llx): %s\n",
              static_cast<unsigned long long>(hedged_severe.fingerprint),
              hedged_deterministic ? "PASS" : "FAIL");
  if (!hedged_deterministic) {
    const auto name = analysis::replay_failure_kind_name(
        analysis::ReplayFailureKind::kFingerprintMismatch);
    std::fprintf(stderr,
                 "chaos_week: [%.*s] hedged severe rerun produced "
                 "fingerprint %016llx, expected %016llx\n",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<unsigned long long>(hedged_rerun.fingerprint),
                 static_cast<unsigned long long>(hedged_severe.fingerprint));
  }

  // --- acceptance checks on the serve family -------------------------------
  std::uint64_t serve_unclassified = 0;
  for (const auto& m : serve_runs) serve_unclassified += m.unclassified;
  const bool serve_classified = serve_unclassified == 0;
  const ServeMetrics& serve_outage = serve_runs.back();
  const bool serve_deterministic =
      serve_outage.fingerprint == serve_rerun.fingerprint;
  // Telemetry-armed runs must agree with the SLO tracker window for
  // window, and the telemetry-OFF rerun must reproduce the telemetry-ON
  // fingerprint (the plane observes, never steers).
  bool serve_telemetry_ok = true;
  for (const auto& m : serve_runs) {
    if (!m.telemetry) continue;
    serve_telemetry_ok = serve_telemetry_ok && m.telemetry_windows > 0 &&
                         m.telemetry_violations == m.violation_windows;
  }
  std::printf("acceptance: serve runs settle every task classified: %s "
              "(%llu unclassified)\n",
              serve_classified ? "PASS" : "FAIL",
              static_cast<unsigned long long>(serve_unclassified));
  std::printf("acceptance: deterministic flash+outage re-run, telemetry off "
              "(fingerprint %016llx): %s\n",
              static_cast<unsigned long long>(serve_outage.fingerprint),
              serve_deterministic ? "PASS" : "FAIL");
  std::printf("acceptance: windowed telemetry matches the SLO tracker on "
              "armed serve runs: %s\n",
              serve_telemetry_ok ? "PASS" : "FAIL");
  if (!serve_deterministic) {
    const auto name = analysis::replay_failure_kind_name(
        analysis::ReplayFailureKind::kFingerprintMismatch);
    std::fprintf(stderr,
                 "chaos_week: [%.*s] serve flash+outage rerun produced "
                 "fingerprint %016llx, expected %016llx\n",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<unsigned long long>(serve_rerun.fingerprint),
                 static_cast<unsigned long long>(serve_outage.fingerprint));
  }

  const bool pass = failure_ok && hp_ok && deterministic &&
                    hedged_classified && hedged_deterministic &&
                    serve_classified && serve_deterministic &&
                    serve_telemetry_ok;
  if (!pass) {
    bench->flight().auto_dump(obs::FlightRecorder::DumpTrigger::kBenchAbort,
                              "chaos_week acceptance failed");
  }
  const std::string json_path = args.get("json");
  if (!json_path.empty()) {
    JsonWriter j;
    j.begin_object()
        .field("bench", "chaos_week")
        .field("divisor", divisor)
        .field("seed", seed);
    j.key("plans").begin_array();
    for (const auto& m : runs) {
      char fp[24];
      std::snprintf(fp, sizeof(fp), "%016llx",
                    static_cast<unsigned long long>(m.fingerprint));
      j.begin_object()
          .field("label", m.label)
          .field("cache_hit", m.cache_hit)
          .field("pre_failure", m.pre_failure)
          .field("e2e_failure", m.e2e_failure)
          .field("fetch_median_kbps", m.fetch_median_kbps)
          .field("rejections", m.rejections)
          .field("highly_popular_rejections", m.highly_popular_rejections)
          .field("shed", m.shed)
          .field("oversubscribed", m.oversubscribed)
          .field("vm_crashes", m.vm_crashes)
          .field("vm_retries", m.vm_retries)
          .field("faults_fired", m.faults_fired)
          .field("fingerprint", std::string(fp))
          .end_object();
    }
    j.end_array();
    j.key("hedged_plans").begin_array();
    for (const auto& m : hedged_runs) {
      char fp[24];
      std::snprintf(fp, sizeof(fp), "%016llx",
                    static_cast<unsigned long long>(m.fingerprint));
      j.begin_object()
          .field("label", m.label)
          .field("tasks", static_cast<std::uint64_t>(m.tasks))
          .field("e2e_failure", m.e2e_failure)
          .field("hedge_pairs", m.pairs)
          .field("hedge_secondary_wins", m.secondary_wins)
          .field("hedge_both_failed", m.both_failed)
          .field("hedge_budget_denied", m.budget_denied)
          .field("hedge_cancelled_clones", m.cancelled_clones)
          .field("hedge_wasted_gb", m.wasted_gb)
          .field("vm_retry_budget_denied", m.vm_budget_denied)
          .field("reroutes", m.reroutes)
          .field("faults_fired", m.faults_fired)
          .field("unclassified_failures", m.unclassified)
          .field("fingerprint", std::string(fp))
          .end_object();
    }
    j.end_array();
    j.key("serve_plans").begin_array();
    for (const auto& m : serve_runs) {
      char fp[24];
      std::snprintf(fp, sizeof(fp), "%016llx",
                    static_cast<unsigned long long>(m.fingerprint));
      j.begin_object()
          .field("label", m.label)
          .field("offered", m.offered)
          .field("admitted", m.admitted)
          .field("shed_unpopular", m.shed)
          .field("dropped_full", m.dropped)
          .field("e2e_failure", m.e2e_failure)
          .field("p99_seconds", m.p99_seconds)
          .field("violation_windows", m.violation_windows)
          .field("hedge_pairs", m.hedge_pairs)
          .field("budget_denied", m.budget_denied)
          .field("faults_fired", m.faults_fired)
          .field("unclassified_failures", m.unclassified)
          .field("telemetry", m.telemetry)
          .field("telemetry_windows", m.telemetry_windows)
          .field("telemetry_violation_windows", m.telemetry_violations)
          .field("first_violation_window", m.first_violation_window)
          .field("fingerprint", std::string(fp))
          .end_object();
    }
    j.end_array();
    j.key("acceptance")
        .begin_object()
        .field("e2e_failure_within_2x", failure_ok)
        .field("zero_highly_popular_rejections", hp_ok)
        .field("deterministic_rerun", deterministic)
        .field("hedged_zero_unclassified", hedged_classified)
        .field("hedged_deterministic_rerun", hedged_deterministic)
        .field("serve_zero_unclassified", serve_classified)
        .field("serve_deterministic_rerun", serve_deterministic)
        .field("serve_telemetry_matches_slo", serve_telemetry_ok)
        .end_object();
    // Informational fault-free calibration snapshot (never gates the bench:
    // chaos plans themselves are allowed to drift the marginals).
    j.key("calibration")
        .begin_object()
        .field("pass", baseline_calibration.pass())
        .field("drift_events", baseline_calibration.drift_events)
        .field("gated_total",
               static_cast<std::uint64_t>(baseline_calibration.gated_total))
        .field("gated_pass",
               static_cast<std::uint64_t>(baseline_calibration.gated_pass));
    j.key("rows").begin_array();
    for (const auto& row : baseline_calibration.rows) {
      const char* status =
          row.status == obs::CalibrationRow::Status::kPass    ? "PASS"
          : row.status == obs::CalibrationRow::Status::kDrift ? "DRIFT"
                                                              : "N/A";
      j.begin_object()
          .field("key", row.spec.key)
          .field("estimate", row.estimate)
          .field("samples", static_cast<std::uint64_t>(row.samples))
          .field("status", status)
          .end_object();
    }
    j.end_array().end_object();
    j.key("metrics");
    bench->write_metrics_json(j);
    j.field("pass", pass).end_object();
    if (j.write_file(json_path)) {
      std::printf("results written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    }
  }
  return pass ? 0 : 1;
}
