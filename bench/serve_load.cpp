// Live-service load bench: the ODR engine under open-loop offered load.
//
// Two families, both on the scaled §6 world:
//
//   1. Ramp sweep — one ServiceLoop per rung of a geometric rate ladder,
//      each sustaining a constant offered rate for the rung duration. The
//      report locates the saturation knee: the highest rung whose
//      streaming SLO (p99 latency + success ratio) still passes, and the
//      first rung past it that blows the p99 target. Open-loop arrivals
//      never slow down, so past the knee the bounded queue fills,
//      degraded-mode admission sheds unpopular arrivals, and backpressure
//      shows up as queue-full drops — none of which a fixed replay trace
//      can express.
//
//   2. Flash crowd — a single run at a fixed mid-ladder rate with the
//      diurnal shape on and a flash-crowd window (rate surge concentrated
//      on one hot file) in the middle, over the full stack (HedgedFetch,
//      breakers, shared retry/hedge budget). Run twice: the acceptance
//      gate pins the admission/drop/latency fingerprint bit-identical
//      across the rerun. The primary run carries the full telemetry
//      plane (admission-verdict spans + windowed metrics time-series,
//      exported as `odr.metricsts.v1` JSONL via --metrics-ts-out); the
//      rerun is telemetry-OFF, so the fingerprint gate doubles as the
//      proof that observing a run never changes it.
#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "analysis/failure_kind.h"
#include "analysis/replay.h"
#include "obs/observer.h"
#include "run/parallel_runner.h"
#include "serve/service_loop.h"
#include "util/args.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using namespace odr;

// The flash crowd multiplies the flash run's base rate by this.
constexpr double kFlashSurge = 6.0;

serve::ServeConfig make_serve_config(double divisor, std::uint64_t seed,
                                     std::size_t max_inflight,
                                     std::size_t queue_capacity) {
  serve::ServeConfig cfg;
  cfg.world.experiment = analysis::make_scaled_config(divisor, seed);
  cfg.world.experiment.cloud.degraded_admission = true;
  cfg.max_inflight = max_inflight;
  cfg.queue_capacity = queue_capacity;
  return cfg;
}

struct SweepPoint {
  double rate = 0.0;
  serve::ServeResult r;
  obs::Registry metrics;
  // Windowed telemetry copied out of the run's observer (empty unless the
  // run enabled metrics_ts).
  std::vector<obs::MetricsTsRow> windows;
  std::uint64_t telemetry_violations = 0;
  std::int64_t first_violation_window = -1;
  bool queue_saturated = false;
};

SweepPoint run_rung(double divisor, std::uint64_t seed, double rate,
                    SimTime duration, std::size_t max_inflight,
                    std::size_t queue_capacity) {
  obs::ObsConfig run_obs;
  run_obs.tracing = false;
  run_obs.dump_on_fault_fired = false;
  obs::ScopedObserver obs(run_obs);

  serve::ServeConfig cfg =
      make_serve_config(divisor, seed, max_inflight, queue_capacity);
  cfg.traffic.phases.push_back({duration, rate});

  serve::ServiceLoop loop(cfg);
  SweepPoint p;
  p.rate = rate;
  p.r = loop.run();
  p.metrics = obs->metrics();
  return p;
}

// `telemetry` arms the live telemetry plane (admission-verdict spans +
// windowed metrics time-series) on this run only; the export paths are
// written while the run's observer is still alive. Pass empty paths to
// skip the files.
SweepPoint run_flash(double divisor, std::uint64_t seed, double rate,
                     SimTime duration, std::size_t max_inflight,
                     std::size_t queue_capacity, bool telemetry,
                     const std::string& metrics_ts_path,
                     const std::string& spans_path,
                     const std::string& metrics_path) {
  obs::ObsConfig run_obs;
  run_obs.tracing = false;
  run_obs.dump_on_fault_fired = false;
  if (telemetry) {
    run_obs.metrics_ts = true;
    run_obs.spans = true;
  }
  obs::ScopedObserver obs(run_obs);

  serve::ServeConfig cfg =
      make_serve_config(divisor, seed, max_inflight, queue_capacity);
  // Full live stack for the surge: hedging against the shared budget,
  // breakers armed, degraded-mode admission already on.
  cfg.world.strategy = core::Strategy::kHedged;
  cfg.world.use_circuit_breakers = true;
  cfg.world.experiment.cloud.retry_budget_enabled = true;
  cfg.traffic.phases.push_back({duration, rate});
  cfg.traffic.diurnal = true;
  cfg.traffic.diurnal_shape.duration = duration;
  cfg.traffic.diurnal_shape.daily_growth = 0.0;
  cfg.traffic.flash.start = duration / 3;
  cfg.traffic.flash.duration = duration / 3;
  cfg.traffic.flash.rate_multiplier = kFlashSurge;
  cfg.traffic.flash.hot_file_fraction = 0.5;
  cfg.traffic.flash.hot_file = 0;

  serve::ServiceLoop loop(cfg);
  SweepPoint p;
  p.rate = rate;
  p.r = loop.run();
  p.metrics = obs->metrics();
  if (const obs::MetricsTimeSeries* mts = obs->metrics_ts()) {
    p.windows = mts->rows();
    p.telemetry_violations = mts->violation_windows();
    p.first_violation_window = mts->first_violation_window();
    p.queue_saturated = mts->saturation_latched();
    if (!metrics_ts_path.empty()) obs->write_metrics_ts_file(metrics_ts_path);
  }
  if (telemetry) {
    if (!spans_path.empty()) obs->write_spans_file(spans_path);
    if (!metrics_path.empty()) obs->write_metrics_file(metrics_path);
  }
  return p;
}

bool conservation_ok(const serve::ServeResult& r) {
  return r.offered == r.admitted + r.shed_unpopular + r.dropped_full &&
         r.completed == r.admitted;  // every admitted task settles
}

void emit_result_fields(JsonWriter& j, const serve::ServeResult& r) {
  char fp[24];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(r.fingerprint));
  j.field("offered", r.offered)
      .field("offered_rate_tasks_per_sec", r.offered_rate_tasks_per_sec)
      .field("admitted", r.admitted)
      .field("shed_unpopular", r.shed_unpopular)
      .field("dropped_full", r.dropped_full)
      .field("completed", r.completed)
      .field("succeeded", r.succeeded)
      .field("failed", r.failed)
      .field("rejected", r.rejected)
      .field("unclassified_failures", r.unclassified_failures)
      .field("peak_queue_depth", static_cast<std::uint64_t>(r.peak_queue_depth))
      .field("peak_inflight", static_cast<std::uint64_t>(r.peak_inflight))
      .field("budget_granted", r.budget_granted)
      .field("budget_denied", r.budget_denied)
      .field("hedge_pairs", r.hedge_pairs)
      .field("p50_seconds", r.slo.p50_seconds)
      .field("p99_seconds", r.slo.p99_seconds)
      .field("goodput_tasks_per_sec", r.slo.goodput_tasks_per_sec)
      .field("success_ratio", r.slo.success_ratio)
      .field("windows", r.slo.windows)
      .field("violation_windows", r.slo.violation_windows)
      .field("slo_pass", r.slo.pass())
      .field("fingerprint", std::string(fp));
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "Open-loop live-service load: ramp to the p99-SLO knee, then a "
      "flash-crowd surge with a pinned determinism fingerprint.");
  args.flag("divisor", "4000", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "workload seed");
  args.flag("base-rate", "0.002", "first rung of the rate ladder (tasks/sec)");
  args.flag("steps", "6", "rate-ladder rungs (each 2x the last)");
  args.flag("rung-minutes", "720", "offered-load duration per rung");
  args.flag("flash-rate", "0.01", "base rate of the flash-crowd run");
  args.flag("inflight", "64", "concurrent dispatch slots");
  args.flag("queue", "256", "admission queue capacity");
  args.flag("json", "BENCH_serve_load.json", "output JSON (empty to skip)");
  args.flag("metrics-ts-out", "BENCH_serve_load.metricsts.jsonl",
            "odr.metricsts.v1 JSONL from the telemetry flash run (empty to "
            "skip)");
  args.flag("spans-out", "", "odr.spans.v1 JSON from the telemetry flash run");
  args.flag("metrics-out", "",
            "odr.metrics.v1 JSON from the telemetry flash run");
  if (!args.parse(argc, argv)) return 1;

  const double divisor = args.get_double("divisor", 1.0, analysis::kMaxDivisor);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  // Counts and durations must be at least 1. Rates must be positive
  // (DBL_MIN is the smallest one the parser's inclusive bound can express)
  // and within what the traffic generator's arrival-gap clamp can honour:
  // the top rung runs at base-rate * 2^(steps-1), the flash run peaks at
  // flash-rate * kFlashSurge. So the ladder must fit between DBL_MIN and
  // kMaxRate, which bounds --steps too.
  const int max_steps =
      std::ilogb(serve::TrafficGen::kMaxRate) - std::ilogb(DBL_MIN) + 1;
  const auto steps = static_cast<int>(args.get_int("steps", 1, max_steps));
  const double base_rate = args.get_double(
      "base-rate", DBL_MIN, std::ldexp(serve::TrafficGen::kMaxRate, 1 - steps));
  const SimTime rung =
      args.get_int("rung-minutes", 1,
                   std::numeric_limits<SimTime>::max() / kMinute) *
      kMinute;
  const double flash_rate = args.get_double(
      "flash-rate", DBL_MIN, serve::TrafficGen::kMaxRate / kFlashSurge);
  const auto inflight = static_cast<std::size_t>(args.get_int("inflight", 1));
  const auto queue = static_cast<std::size_t>(args.get_int("queue", 1));
  // The rates bound the arrivals per second, not in all: the ladder offers
  // Σ rate × rung, and each of the two flash runs rate × rung at base plus
  // (kFlashSurge − 1) × rate over its surge third.
  const double rung_s = to_seconds(rung);
  const double offered =
      base_rate * (std::ldexp(1.0, steps) - 1.0) * rung_s +
      2.0 * flash_rate * rung_s * (1.0 + (kFlashSurge - 1.0) / 3.0);
  if (offered > serve::TrafficGen::kMaxArrivals) {
    std::fprintf(stderr,
                 "serve_load: --base-rate %s, --steps %d, --rung-minutes %s "
                 "and --flash-rate %s would offer %.3g arrivals; a run may "
                 "offer at most %.3g\n",
                 args.get("base-rate").c_str(), steps,
                 args.get("rung-minutes").c_str(),
                 args.get("flash-rate").c_str(), offered,
                 serve::TrafficGen::kMaxArrivals);
    return 1;
  }

  obs::ObsConfig bench_obs;
  bench_obs.tracing = false;
  bench_obs.dump_on_fault_fired = false;
  obs::ScopedObserver bench(bench_obs);

  // Every rung plus the flash run and its determinism rerun are
  // independent worlds at the same seed; fan them all out at once.
  std::vector<double> rates;
  for (int i = 0; i < steps; ++i) {
    rates.push_back(std::ldexp(base_rate, i));
  }
  std::vector<std::function<SweepPoint()>> jobs;
  for (double rate : rates) {
    jobs.push_back([=] {
      return run_rung(divisor, seed, rate, rung, inflight, queue);
    });
  }
  // Primary flash run carries the telemetry plane and writes the export
  // files; the rerun is telemetry-off, so the fingerprint comparison
  // below is also the obs-transparency gate.
  const std::string metrics_ts_path = args.get("metrics-ts-out");
  const std::string spans_path = args.get("spans-out");
  const std::string metrics_path = args.get("metrics-out");
  jobs.push_back([=] {
    return run_flash(divisor, seed, flash_rate, rung, inflight, queue,
                     /*telemetry=*/true, metrics_ts_path, spans_path,
                     metrics_path);
  });
  jobs.push_back([=] {
    return run_flash(divisor, seed, flash_rate, rung, inflight, queue,
                     /*telemetry=*/false, "", "", "");
  });

  const auto report_settled_failure = [](const std::string& label,
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
    std::fprintf(stderr, "run FAILED: %s: [%.*s] %s\n", label.c_str(),
                 static_cast<int>(name.size()), name.data(), what.c_str());
  };

  auto settled = run::run_parallel_settled(std::move(jobs));
  int failed_runs = 0;
  for (std::size_t i = 0; i < settled.size(); ++i) {
    if (settled[i].ok()) continue;
    ++failed_runs;
    const std::string label =
        i < rates.size() ? "rate " + std::to_string(rates[i])
                         : (i == rates.size() ? "flash" : "flash(rerun)");
    report_settled_failure(label, settled[i].error);
  }
  if (failed_runs > 0) {
    std::fprintf(stderr, "serve_load: %d of %zu run(s) failed\n", failed_runs,
                 settled.size());
    return 1;
  }
  std::vector<SweepPoint> ramp;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    ramp.push_back(std::move(*settled[i].value));
  }
  const SweepPoint flash = std::move(*settled[rates.size()].value);
  const SweepPoint flash_rerun = std::move(*settled[rates.size() + 1].value);
  for (const auto& p : ramp) bench->metrics().merge_from(p.metrics);
  bench->metrics().merge_from(flash.metrics);
  bench->metrics().merge_from(flash_rerun.metrics);

  // --- knee location --------------------------------------------------------
  double knee_rate = 0.0;        // highest rung whose SLO still passes
  double first_failing = 0.0;    // lowest rung past the knee
  bool any_pass = false, any_fail = false;
  for (const auto& p : ramp) {
    if (p.r.slo.pass()) {
      any_pass = true;
      knee_rate = std::max(knee_rate, p.rate);
    } else {
      any_fail = true;
      if (first_failing == 0.0) first_failing = p.rate;
    }
  }
  const bool knee_found = any_pass && any_fail;

  TextTable table({"rate/s", "offered", "admit", "shed", "drop", "p50 s",
                   "p99 s", "goodput/s", "succ", "viol", "SLO"});
  for (const auto& p : ramp) {
    table.add_row({TextTable::num(p.rate, 3), std::to_string(p.r.offered),
                   std::to_string(p.r.admitted),
                   std::to_string(p.r.shed_unpopular),
                   std::to_string(p.r.dropped_full),
                   TextTable::num(p.r.slo.p50_seconds, 1),
                   TextTable::num(p.r.slo.p99_seconds, 1),
                   TextTable::num(p.r.slo.goodput_tasks_per_sec, 3),
                   TextTable::pct(p.r.slo.success_ratio),
                   std::to_string(p.r.slo.violation_windows),
                   p.r.slo.pass() ? "pass" : "FAIL"});
  }
  std::fputs(banner("Open-loop ramp to saturation (1/" + args.get("divisor") +
                    " scale, " + args.get("rung-minutes") + " min per rung)")
                 .c_str(),
             stdout);
  std::fputs(table.render().c_str(), stdout);
  if (knee_found) {
    std::printf("\nknee: p99 SLO holds at %.2f tasks/s, blows at %.2f "
                "tasks/s (p99 target %.0f s)\n",
                knee_rate, first_failing,
                to_seconds(serve::SloConfig{}.p99_latency_target));
  } else {
    std::printf("\nknee: not bracketed by the ladder (%s)\n",
                any_pass ? "every rung passed — raise --steps"
                         : "every rung failed — lower --base-rate");
  }

  TextTable ftable({"run", "offered", "admit", "shed", "drop", "p99 s",
                    "hedges", "denied", "viol", "fingerprint"});
  for (const auto* p : {&flash, &flash_rerun}) {
    char fp[24];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(p->r.fingerprint));
    ftable.add_row({p == &flash ? "flash" : "flash(rerun)",
                    std::to_string(p->r.offered),
                    std::to_string(p->r.admitted),
                    std::to_string(p->r.shed_unpopular),
                    std::to_string(p->r.dropped_full),
                    TextTable::num(p->r.slo.p99_seconds, 1),
                    std::to_string(p->r.hedge_pairs),
                    std::to_string(p->r.budget_denied),
                    std::to_string(p->r.slo.violation_windows), fp});
  }
  std::fputs(banner("Flash crowd at " + args.get("flash-rate") +
                    " tasks/s base (hedged, breakers, shared budget)")
                 .c_str(),
             stdout);
  std::fputs(ftable.render().c_str(), stdout);

  // --- flash-crowd telemetry trajectory -------------------------------------
  if (!flash.windows.empty()) {
    TextTable ttable({"win", "start h", "offered", "admit", "shed", "drop",
                      "done", "p99 s", "denied", "queue", "dominant", "viol"});
    std::size_t idle_rows = 0;
    for (const auto& w : flash.windows) {
      // The drain tail is mostly idle windows; keep the console table to
      // the rows that carry information (the JSONL has every window).
      if (w.offered == 0 && w.completed == 0 && !w.p99_violation) {
        ++idle_rows;
        continue;
      }
      ttable.add_row(
          {std::to_string(w.window), TextTable::num(to_hours(w.start), 1),
           std::to_string(w.offered), std::to_string(w.admitted),
           std::to_string(w.shed_unpopular), std::to_string(w.dropped_full),
           std::to_string(w.completed), TextTable::num(w.p99_seconds, 1),
           std::to_string(w.budget_denied()),
           std::to_string(w.peak_queue_depth),
           std::string(w.dominant_stage()), w.p99_violation ? "VIOL" : ""});
    }
    std::fputs(banner("Flash telemetry (odr.metricsts.v1, " +
                      std::to_string(flash.windows.size()) + " windows, " +
                      std::to_string(idle_rows) + " idle omitted)")
                   .c_str(),
               stdout);
    std::fputs(ttable.render().c_str(), stdout);
    if (flash.first_violation_window >= 0) {
      const auto& first = flash.windows[static_cast<std::size_t>(
          flash.first_violation_window)];
      std::printf("\np99-SLO knee localized to window %lld "
                  "[%.1f h, %.1f h): p99 %.1f s, dominant stage %s\n",
                  static_cast<long long>(flash.first_violation_window),
                  to_hours(first.start), to_hours(first.end),
                  first.p99_seconds,
                  std::string(first.dominant_stage()).c_str());
    } else {
      std::printf("\nno p99-violating window — flash absorbed within SLO\n");
    }
  }

  // --- acceptance -----------------------------------------------------------
  bool conserve = conservation_ok(flash.r) && conservation_ok(flash_rerun.r);
  for (const auto& p : ramp) conserve = conserve && conservation_ok(p.r);
  const bool deterministic = flash.r.fingerprint == flash_rerun.r.fingerprint;
  const bool saturates = any_fail;  // the ladder reaches overload
  std::printf("\nacceptance: admission conservation (offered == admitted + "
              "shed + dropped, completed == admitted): %s\n",
              conserve ? "PASS" : "FAIL");
  std::printf("acceptance: ladder reaches saturation (some rung fails SLO): "
              "%s\n",
              saturates ? "PASS" : "FAIL");
  std::printf("acceptance: deterministic flash rerun (fingerprint %016llx): "
              "%s\n",
              static_cast<unsigned long long>(flash.r.fingerprint),
              deterministic ? "PASS" : "FAIL");
  if (!deterministic) {
    const auto name = analysis::replay_failure_kind_name(
        analysis::ReplayFailureKind::kFingerprintMismatch);
    std::fprintf(stderr,
                 "serve_load: [%.*s] flash rerun produced fingerprint "
                 "%016llx, expected %016llx\n",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<unsigned long long>(flash_rerun.r.fingerprint),
                 static_cast<unsigned long long>(flash.r.fingerprint));
  }

  // Telemetry self-consistency: per-window sums reproduce the ServeResult
  // totals, the window verdicts agree with the SloTracker, and every
  // violating window names a dominant stage (spans were on).
  bool telemetry_ok = !flash.windows.empty();
  std::uint64_t tele_offered = 0, tele_completed = 0;
  for (const auto& w : flash.windows) {
    tele_offered += w.offered;
    tele_completed += w.completed;
    if (w.p99_violation && w.dominant_stage().empty()) telemetry_ok = false;
  }
  telemetry_ok = telemetry_ok && tele_offered == flash.r.offered &&
                 tele_completed == flash.r.completed &&
                 flash.telemetry_violations == flash.r.slo.violation_windows &&
                 (flash.telemetry_violations == 0) ==
                     (flash.first_violation_window < 0);
  std::printf("acceptance: telemetry conservation (window sums == totals, "
              "windowed verdicts == SLO tracker, violating windows "
              "attributed): %s\n",
              telemetry_ok ? "PASS" : "FAIL");

  const bool pass = conserve && saturates && deterministic && telemetry_ok;
  if (!pass) {
    bench->flight().auto_dump(obs::FlightRecorder::DumpTrigger::kBenchAbort,
                              "serve_load acceptance failed");
  }

  const std::string json_path = args.get("json");
  if (!json_path.empty()) {
    JsonWriter j;
    j.begin_object()
        .field("bench", "serve_load")
        .field("divisor", divisor)
        .field("seed", seed)
        .field("max_inflight", static_cast<std::uint64_t>(inflight))
        .field("queue_capacity", static_cast<std::uint64_t>(queue));
    j.key("slo").begin_object();
    const serve::SloConfig slo;
    j.field("p99_target_seconds", to_seconds(slo.p99_latency_target))
        .field("min_success_ratio", slo.min_success_ratio)
        .field("window_seconds", to_seconds(slo.window))
        .end_object();
    j.key("ramp").begin_array();
    for (const auto& p : ramp) {
      j.begin_object().field("rate_tasks_per_sec", p.rate);
      emit_result_fields(j, p.r);
      j.end_object();
    }
    j.end_array();
    j.field("knee_tasks_per_sec", knee_rate)
        .field("first_failing_tasks_per_sec", first_failing)
        .field("knee_found", knee_found);
    j.key("flash").begin_object().field("rate_tasks_per_sec", flash.rate);
    emit_result_fields(j, flash.r);
    j.key("telemetry")
        .begin_object()
        .field("windows", static_cast<std::uint64_t>(flash.windows.size()))
        .field("violation_windows", flash.telemetry_violations)
        .field("first_violation_window",
               static_cast<std::int64_t>(flash.first_violation_window))
        .field("queue_saturated", flash.queue_saturated);
    j.key("rows").begin_array();
    for (const auto& w : flash.windows) w.write_json(j);
    j.end_array().end_object();
    j.end_object();
    j.key("acceptance")
        .begin_object()
        .field("conservation", conserve)
        .field("saturation_reached", saturates)
        .field("deterministic_rerun", deterministic)
        .field("telemetry", telemetry_ok)
        .end_object();
    j.end_object();
    if (!j.write_file(json_path)) {
      std::fprintf(stderr, "serve_load: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return pass ? 0 : 1;
}
