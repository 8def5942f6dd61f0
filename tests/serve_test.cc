// Tests for the live-service subsystem: open-loop generator statistics
// (KS-style distribution checks across seeds), streaming SLO tracking,
// admission control / backpressure invariants, and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/replay.h"
#include "fault/fault_plan.h"
#include "obs/observer.h"
#include "serve/service_loop.h"
#include "serve/slo_tracker.h"
#include "serve/traffic_gen.h"

namespace odr {
namespace {

// Kolmogorov–Smirnov distance between an empirical sample and a CDF.
template <typename Cdf>
double ks_one_sample(std::vector<double> xs, Cdf cdf) {
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  double d = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double f = cdf(xs[i]);
    d = std::max(d, std::abs(f - static_cast<double>(i) / n));
    d = std::max(d, std::abs(f - static_cast<double>(i + 1) / n));
  }
  return d;
}

// Two-sample KS distance. The distributions are discrete (file sizes
// repeat), so both pointers must advance through ALL copies of a tied
// value before the CDF gap is measured — evaluating mid-tie would inflate
// the statistic by the atom's mass.
double ks_two_sample(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  double d = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    const double v = (j >= b.size() || (i < a.size() && a[i] <= b[j]))
                         ? a[i]
                         : b[j];
    while (i < a.size() && a[i] == v) ++i;
    while (j < b.size() && b[j] == v) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / na -
                             static_cast<double>(j) / nb));
  }
  return d;
}

struct World {
  Rng rng;
  workload::Catalog catalog;
  workload::UserPopulation users;

  explicit World(std::uint64_t seed, double divisor = 400.0)
      : rng(seed),
        catalog(analysis::make_scaled_config(divisor, seed).catalog, rng),
        users(analysis::make_scaled_config(divisor, seed).users, rng) {}
};

// --- TrafficGen statistics ---------------------------------------------------

TEST(TrafficGenTest, InterarrivalsAreExponentialAcrossSeeds) {
  // Constant rate, no modulation: thinning accepts every envelope draw, so
  // interarrivals must follow Exp(rate). One-sample KS at alpha ~ 1e-3
  // (critical D ~ 1.95/sqrt(n)), with headroom for the 1 us gap clamp.
  const double rate = 1.0;
  for (std::uint64_t seed : {7ull, 42ull, 20151028ull}) {
    World w(seed);
    serve::TrafficGenConfig cfg;
    cfg.phases.push_back({4 * kHour, rate});
    serve::TrafficGen gen(cfg, w.catalog, w.users, w.rng.fork());

    std::vector<double> gaps;
    workload::WorkloadRecord r;
    SimTime prev = 0;
    while (gen.next(r)) {
      gaps.push_back(to_seconds(r.request_time - prev));
      prev = r.request_time;
    }
    ASSERT_GT(gaps.size(), 2000u) << "seed " << seed;
    const double d = ks_one_sample(
        gaps, [rate](double x) { return 1.0 - std::exp(-rate * x); });
    EXPECT_LT(d, 0.06) << "seed " << seed << ": interarrival KS=" << d;
  }
}

TEST(TrafficGenTest, FileSizesMatchCatalogDistributionAcrossSeeds) {
  // The generator must sample files through the same popularity-weighted
  // catalog draw the batch generator uses: two-sample KS between its
  // file sizes and direct catalog.sample_request draws.
  for (std::uint64_t seed : {11ull, 99ull, 20151028ull}) {
    World w(seed);
    serve::TrafficGenConfig cfg;
    cfg.phases.push_back({40 * kMinute, 1.0});
    serve::TrafficGen gen(cfg, w.catalog, w.users, w.rng.fork());

    std::vector<double> gen_sizes;
    workload::WorkloadRecord r;
    while (gen.next(r)) {
      gen_sizes.push_back(
          std::log2(static_cast<double>(w.catalog.file(r.file).size) + 1.0));
    }
    ASSERT_GT(gen_sizes.size(), 1500u) << "seed " << seed;

    // Reference sample through the batch generator's own dedup-aware
    // sampler (fetch-at-most-once thins the popularity head, so raw
    // catalog draws are NOT the right null distribution).
    Rng direct(seed ^ 0x9e3779b97f4a7c15ull);
    workload::FetchedPairs seen;
    std::vector<double> cat_sizes;
    workload::WorkloadRecord ref;
    for (std::size_t i = 0; cat_sizes.size() < 2000 && i < 4000; ++i) {
      if (workload::RequestGenerator::sample_arrival(
              w.catalog, w.users, direct, 0,
              static_cast<workload::TaskId>(i + 1), seen, ref)) {
        cat_sizes.push_back(std::log2(
            static_cast<double>(w.catalog.file(ref.file).size) + 1.0));
      }
    }
    ASSERT_EQ(cat_sizes.size(), 2000u);
    const double d = ks_two_sample(gen_sizes, cat_sizes);
    EXPECT_LT(d, 0.08) << "seed " << seed << ": file-size KS=" << d;
  }
}

TEST(TrafficGenTest, RecordsAreConsistentWithCatalogAndUsers) {
  World w(5);
  serve::TrafficGenConfig cfg;
  cfg.phases.push_back({30 * kMinute, 1.0});
  serve::TrafficGen gen(cfg, w.catalog, w.users, w.rng.fork());
  workload::WorkloadRecord r;
  SimTime prev = -1;
  std::uint64_t count = 0;
  while (gen.next(r)) {
    ++count;
    EXPECT_GT(r.request_time, prev);  // strictly increasing
    prev = r.request_time;
    EXPECT_EQ(r.task_id, count);      // chronological ids
    EXPECT_LT(r.file, w.catalog.size());  // names a catalog file
    EXPECT_LT(r.user_id, w.users.size());  // and a population user
  }
  EXPECT_EQ(gen.generated(), count);
}

TEST(TrafficGenTest, FlashCrowdSurgesRateAndConcentratesHotFile) {
  // Rate kept low relative to the user population: each (user, hot_file)
  // pair fetches at most once, so a surge much larger than the population
  // would dilute the hot-file share no matter what fraction is configured.
  World w(21);
  serve::TrafficGenConfig cfg;
  cfg.phases.push_back({6 * kHour, 0.02});
  cfg.flash.start = 2 * kHour;
  cfg.flash.duration = 2 * kHour;
  cfg.flash.rate_multiplier = 5.0;
  cfg.flash.hot_file_fraction = 0.5;
  cfg.flash.hot_file = 0;
  serve::TrafficGen gen(cfg, w.catalog, w.users, w.rng.fork());

  std::uint64_t in_window = 0, outside = 0, hot = 0;
  workload::WorkloadRecord r;
  while (gen.next(r)) {
    if (cfg.flash.active_at(r.request_time)) {
      ++in_window;
      if (r.file == cfg.flash.hot_file) ++hot;
    } else {
      ++outside;
    }
  }
  // Window is 1/3 of the plan at 5x the rate: in-window arrivals/hour must
  // be several times the outside rate (5x nominal; allow sampling noise).
  const double window_rate = static_cast<double>(in_window) / 2.0;
  const double outside_rate = static_cast<double>(outside) / 4.0;
  EXPECT_GT(window_rate, 3.0 * outside_rate);
  // Half the surge is aimed at the hot file (minus dedup fall-through).
  const double hot_frac =
      static_cast<double>(hot) / static_cast<double>(in_window);
  EXPECT_GT(hot_frac, 0.30);
  EXPECT_LT(hot_frac, 0.70);
}

TEST(TrafficGenTest, DiurnalModulationFollowsPeakHour) {
  World w(3);
  serve::TrafficGenConfig cfg;
  cfg.phases.push_back({2 * kDay, 1.0});
  cfg.diurnal = true;
  cfg.diurnal_shape.duration = 2 * kDay;
  cfg.diurnal_shape.daily_growth = 0.0;  // pure diurnal shape
  serve::TrafficGen gen(cfg, w.catalog, w.users, w.rng.fork());
  // rate_at peaks at peak_hour (21:00) and troughs 12 h away.
  const SimTime peak = static_cast<SimTime>(21.0 * kHour);
  const SimTime trough = static_cast<SimTime>(9.0 * kHour);
  EXPECT_GT(gen.rate_at(peak), 2.0 * gen.rate_at(trough));
  EXPECT_LE(gen.rate_at(peak), gen.peak_rate() + 1e-12);

  std::uint64_t near_peak = 0, near_trough = 0;
  workload::WorkloadRecord r;
  while (gen.next(r)) {
    const double hour = to_hours(r.request_time);
    const double hod = hour - std::floor(hour / 24.0) * 24.0;
    if (std::abs(hod - 21.0) < 3.0) ++near_peak;
    if (std::abs(hod - 9.0) < 3.0) ++near_trough;
  }
  EXPECT_GT(near_peak, near_trough * 2);
}

TEST(TrafficGenTest, SameSeedSameSequenceDifferentSeedDiffers) {
  World w1(123), w2(123), w3(124);
  serve::TrafficGenConfig cfg;
  cfg.phases.push_back({kHour, 1.0});
  serve::TrafficGen a(cfg, w1.catalog, w1.users, Rng(9));
  serve::TrafficGen b(cfg, w2.catalog, w2.users, Rng(9));
  serve::TrafficGen c(cfg, w3.catalog, w3.users, Rng(10));
  workload::WorkloadRecord ra, rb, rc;
  bool differs = false;
  while (a.next(ra)) {
    ASSERT_TRUE(b.next(rb));
    EXPECT_EQ(ra.request_time, rb.request_time);
    EXPECT_EQ(ra.file, rb.file);
    EXPECT_EQ(ra.user_id, rb.user_id);
    if (c.next(rc) &&
        (rc.request_time != ra.request_time || rc.file != ra.file)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

// --- SloTracker --------------------------------------------------------------

TEST(SloTrackerTest, QuantilesApproximateTrueRanks) {
  serve::SloConfig cfg;
  serve::SloTracker t(cfg);
  // 1..1000 seconds, uniformly: true p50 = 500 s, p99 = 990 s. The
  // quarter-octave histogram bounds relative error at ~19% (bucket upper).
  for (int i = 1; i <= 1000; ++i) {
    t.on_complete(static_cast<SimTime>(i) * kSec, true, 0);
  }
  const double p50 = to_seconds(t.latency_quantile(0.50));
  const double p99 = to_seconds(t.latency_quantile(0.99));
  EXPECT_GE(p50, 500.0);
  EXPECT_LE(p50, 500.0 * 1.25);
  EXPECT_GE(p99, 990.0);
  EXPECT_LE(p99, 990.0 * 1.25);
}

TEST(SloTrackerTest, WindowedViolationsCountMeltedWindowsOnly) {
  serve::SloConfig cfg;
  cfg.p99_latency_target = 10 * kSec;
  cfg.window = kMinute;
  serve::SloTracker t(cfg);
  // Window 0: all fast. Window 1: all slow (p99 blows). Window 2: fast.
  for (int i = 0; i < 50; ++i) t.on_complete(kSec, true, 10 * kSec);
  for (int i = 0; i < 50; ++i) {
    t.on_complete(100 * kSec, true, kMinute + 10 * kSec);
  }
  for (int i = 0; i < 50; ++i) {
    t.on_complete(kSec, true, 2 * kMinute + 10 * kSec);
  }
  const serve::SloReport r = t.report(3 * kMinute);
  EXPECT_EQ(r.windows, 3u);
  EXPECT_EQ(r.violation_windows, 1u);
}

TEST(SloTrackerTest, OfferedDenominatorFoldsAdmissionLossIntoSlo) {
  serve::SloConfig cfg;
  cfg.min_success_ratio = 0.75;
  serve::SloTracker t(cfg);
  for (int i = 0; i < 80; ++i) t.on_complete(kSec, true, 0);
  // 80 successes out of 80 completed — but 160 were offered: the open-loop
  // SLO counts the dropped half as failures.
  const serve::SloReport completed_only = t.report(kHour);
  EXPECT_DOUBLE_EQ(completed_only.success_ratio, 1.0);
  EXPECT_TRUE(completed_only.success_ok);
  serve::SloTracker t2(cfg);
  for (int i = 0; i < 80; ++i) t2.on_complete(kSec, true, 0);
  const serve::SloReport offered = t2.report(kHour, 160);
  EXPECT_DOUBLE_EQ(offered.success_ratio, 0.5);
  EXPECT_FALSE(offered.success_ok);
}

TEST(SloTrackerTest, ZeroSampleReportIsAllZerosNeverNaN) {
  // A tracker that saw no completions, reported over zero elapsed time:
  // every denominator in report() is zero, and every derived statistic
  // must come back exactly 0 — not NaN, not infinity — so telemetry JSON
  // built from the report is always well-formed.
  serve::SloConfig cfg;
  serve::SloTracker t(cfg);
  const serve::SloReport r = t.report(/*elapsed=*/0);
  EXPECT_EQ(r.completed, 0u);
  EXPECT_EQ(r.succeeded, 0u);
  EXPECT_EQ(r.windows, 0u);
  EXPECT_EQ(r.violation_windows, 0u);
  EXPECT_DOUBLE_EQ(r.p50_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.p99_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.goodput_tasks_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(r.success_ratio, 0.0);
  // Empty-histogram quantile is 0, which trivially meets the target;
  // the success ratio of nothing does not.
  EXPECT_TRUE(r.p99_ok);
  EXPECT_FALSE(r.success_ok);
}

TEST(SloTrackerTest, IdleGapWindowsAreNeitherMeasuredNorViolations) {
  // One slow completion in window 0, then silence until window 5: the
  // idle gap must not inflate `windows` and must never count as
  // violations — a zero-sample window has no p99 to violate.
  serve::SloConfig cfg;
  cfg.p99_latency_target = 10 * kSec;
  cfg.window = kMinute;
  serve::SloTracker t(cfg);
  t.on_complete(100 * kSec, true, 10 * kSec);
  t.on_complete(kSec, true, 5 * kMinute + 10 * kSec);
  const serve::SloReport r = t.report(6 * kMinute);
  EXPECT_EQ(r.windows, 2u);
  EXPECT_EQ(r.violation_windows, 1u);
}

// --- ServiceLoop -------------------------------------------------------------

serve::ServeConfig small_service(std::uint64_t seed, double rate,
                                 SimTime duration) {
  serve::ServeConfig cfg;
  cfg.world.experiment = analysis::make_scaled_config(4000.0, seed);
  cfg.world.experiment.cloud.degraded_admission = true;
  cfg.traffic.phases.push_back({duration, rate});
  return cfg;
}

TEST(ServiceLoopTest, AdmissionVerdictsConserveAndQueueStaysBounded) {
  serve::ServeConfig cfg = small_service(20151028, 0.05, 4 * kHour);
  cfg.max_inflight = 4;
  cfg.queue_capacity = 8;
  cfg.shed_watermark = 0.5;
  serve::ServiceLoop loop(cfg);
  const serve::ServeResult r = loop.run();

  ASSERT_GT(r.offered, 100u);
  EXPECT_EQ(r.offered, r.admitted + r.shed_unpopular + r.dropped_full);
  EXPECT_EQ(r.completed, r.admitted);  // full drain: every admitted settles
  EXPECT_EQ(r.completed, r.succeeded + r.failed);
  EXPECT_LE(r.peak_queue_depth, cfg.queue_capacity);
  EXPECT_LE(r.peak_inflight, cfg.max_inflight);
  // This far past the knee the bounded queue must have engaged both
  // degraded-mode shedding and backpressure drops.
  EXPECT_GT(r.shed_unpopular, 0u);
  EXPECT_GT(r.dropped_full, 0u);
  EXPECT_GE(r.drained_at, r.plan_duration);
}

TEST(ServiceLoopTest, UnderloadedServiceAdmitsEverythingAndMeetsSlo) {
  serve::ServeConfig cfg = small_service(20151028, 0.002, 4 * kHour);
  serve::ServiceLoop loop(cfg);
  const serve::ServeResult r = loop.run();
  ASSERT_GT(r.offered, 10u);
  EXPECT_EQ(r.admitted, r.offered);
  EXPECT_EQ(r.shed_unpopular, 0u);
  EXPECT_EQ(r.dropped_full, 0u);
  EXPECT_TRUE(r.slo.success_ok) << "success ratio " << r.slo.success_ratio;
}

TEST(ServiceLoopTest, BackpressureSignalsOnlyAboveCapacity) {
  // The same world, offered 30x more load: drops must appear and the
  // success-vs-offered SLO must degrade relative to the underloaded run.
  serve::ServeConfig lo_cfg = small_service(7, 0.002, 4 * kHour);
  serve::ServiceLoop lo(lo_cfg);
  const serve::ServeResult lo_r = lo.run();

  serve::ServeConfig hi_cfg = small_service(7, 0.06, 4 * kHour);
  hi_cfg.max_inflight = 8;
  hi_cfg.queue_capacity = 16;
  serve::ServiceLoop hi(hi_cfg);
  const serve::ServeResult hi_r = hi.run();

  EXPECT_EQ(lo_r.dropped_full, 0u);
  EXPECT_GT(hi_r.dropped_full + hi_r.shed_unpopular, 0u);
  EXPECT_LT(hi_r.slo.success_ratio, lo_r.slo.success_ratio);
}

TEST(ServiceLoopTest, FingerprintIsDeterministicAndSeedSensitive) {
  serve::ServeConfig cfg = small_service(99, 0.02, 2 * kHour);
  serve::ServiceLoop a(cfg);
  const serve::ServeResult ra = a.run();
  serve::ServiceLoop b(cfg);
  const serve::ServeResult rb = b.run();
  EXPECT_EQ(ra.fingerprint, rb.fingerprint);
  EXPECT_EQ(ra.offered, rb.offered);
  EXPECT_EQ(ra.slo.p99_seconds, rb.slo.p99_seconds);

  serve::ServeConfig other = small_service(100, 0.02, 2 * kHour);
  serve::ServiceLoop c(other);
  EXPECT_NE(c.run().fingerprint, ra.fingerprint);
}

// Per-window offered counts of one service run, with the trailing drain
// windows (no arrivals, only completions) trimmed off.
std::vector<std::uint64_t> offered_per_window(const serve::ServeConfig& cfg,
                                              serve::ServeResult& result) {
  obs::ObsConfig ocfg;
  ocfg.tracing = false;
  ocfg.metrics_ts = true;
  ocfg.dump_on_fault_fired = false;
  ocfg.dump_on_overload = false;
  obs::ScopedObserver obs(ocfg);
  serve::ServiceLoop loop(cfg);
  result = loop.run();
  std::vector<std::uint64_t> offered;
  for (const obs::MetricsTsRow& row : obs->metrics_ts()->rows()) {
    offered.push_back(row.offered);
  }
  while (!offered.empty() && offered.back() == 0) offered.pop_back();
  return offered;
}

TEST(ServiceLoopTest, ArrivalsAreTheSameUnderEveryFaultPlan) {
  // The traffic generator forks the world's rng before the fault injector
  // does, so a fault plan changes how arrivals are served, never which
  // arrive or when.
  serve::ServeResult plain;
  const std::vector<std::uint64_t> plain_offered = offered_per_window(
      small_service(20151028, 0.02, 8 * kHour), plain);

  serve::ServeConfig chaos_cfg = small_service(20151028, 0.02, 8 * kHour);
  chaos_cfg.world.experiment.fault_plan = fault::make_chaos_plan(3);
  serve::ServeResult chaos;
  const std::vector<std::uint64_t> chaos_offered =
      offered_per_window(chaos_cfg, chaos);

  ASSERT_GT(chaos.faults_fired, 0u);
  ASSERT_GT(plain.offered, 100u);
  EXPECT_EQ(chaos.offered, plain.offered);
  EXPECT_EQ(chaos_offered, plain_offered);
}

TEST(StrategyWorldTest, ReplayArrivalsAreTheSameUnderEveryFaultPlan) {
  // The replay twin: the week is drawn before the injector forks, so every
  // task arrives at the same time under every plan.
  analysis::StrategyReplayConfig cfg;
  cfg.experiment = analysis::make_scaled_config(4000.0, 20151028);
  const analysis::StrategyReplayResult plain =
      analysis::run_strategy_replay(cfg);
  cfg.experiment.fault_plan = fault::make_chaos_plan(3);
  const analysis::StrategyReplayResult chaos =
      analysis::run_strategy_replay(cfg);

  const auto arrivals = [](const analysis::StrategyReplayResult& r) {
    std::vector<std::pair<workload::TaskId, SimTime>> out;
    for (const core::ExecOutcome& o : r.outcomes) {
      out.emplace_back(o.task_id, o.request_time);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  ASSERT_GT(chaos.faults_fired, 0u);
  ASSERT_FALSE(plain.outcomes.empty());
  EXPECT_EQ(arrivals(chaos), arrivals(plain));
}

// --- RetryBudget observability ----------------------------------------------

TEST(RetryBudgetObsTest, GrantAndDenyCountersReachTheRegistry) {
  obs::ObsConfig ocfg;
  ocfg.tracing = false;
  obs::ScopedObserver obs(ocfg);

  core::RetryBudget::Config bcfg;
  bcfg.enabled = true;
  bcfg.global_capacity = 4.0;
  bcfg.global_refill_per_hour = 0.0;
  bcfg.per_user_capacity = 100.0;
  bcfg.per_user_refill_per_hour = 0.0;
  core::RetryBudget budget(bcfg);
  for (int i = 0; i < 10; ++i) budget.try_acquire(1, 0);

  EXPECT_EQ(budget.granted(), 4u);
  EXPECT_EQ(budget.denied(), 6u);
  const auto* granted = obs->metrics().find_counter("core.budget.granted");
  const auto* denied = obs->metrics().find_counter("core.budget.denied");
  ASSERT_NE(granted, nullptr);
  ASSERT_NE(denied, nullptr);
  EXPECT_EQ(granted->value(), budget.granted());
  EXPECT_EQ(denied->value(), budget.denied());
}

}  // namespace
}  // namespace odr
