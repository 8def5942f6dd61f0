// Pinned golden fingerprints of the chaos acceptance scenario.
//
// The chaos harness (bench/chaos_week) gates on the severe-plan replay
// being bit-for-bit deterministic; this test pins the actual hash values
// so ANY change to the event engine, the flow solver, the rng draw order,
// or the outcome fields shows up as a test failure here — not as a silent
// baseline shift in the bench JSON. The goldens are at divisor 4000, seed
// 20151028. The incremental-solver rewrite had to reproduce them exactly;
// they were re-recorded once, with every other golden, when swarms got an
// exact O(1) advance and sources timers instead of 5-minute polls, and
// once more when a seeded swarm's task began sleeping through the samples
// before its next birth or death.
//
// If a deliberate format break changes these values, re-record them with:
//   bench/chaos_week --divisor=4000 --json=out.json   (fields "fingerprint")
#include <gtest/gtest.h>

#include <cstdint>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "fault/fault_plan.h"
#include "obs/observer.h"
#include "serve/service_loop.h"
#include "snapshot/world.h"

namespace odr {
namespace {

constexpr std::uint64_t kSeed = 20151028;
constexpr double kDivisor = 4000.0;
// Golden values; see the header comment before touching these.
constexpr std::uint64_t kBaselineFingerprint = 0xdee6a58ac1aaf194ull;
constexpr std::uint64_t kSevereFingerprint = 0xe24a961da5a183b4ull;
// The hedged strategy week, hashed with exec_outcome_fingerprint (the
// executor-outcome analogue of outcome_fingerprint, including the
// hedged/secondary-won verdict per task). Re-record by running this test
// and reading the "actual" value — but only after convincing yourself the
// change to the hedging race order was intentional.
constexpr std::uint64_t kHedgedWeekFingerprint = 0xdc92b16d9cda250full;
// The live-service flash-crowd run (bench/serve_load's flash family with
// its default flags): open-loop arrivals, admission control, hedging,
// breakers, shared budget. The fingerprint hashes every admission verdict
// and completion in order, so it pins the arrival sampler's draw order,
// the queue/dispatch interleaving, AND the engine's outcome stream.
// Re-record from bench/serve_load's "flash" fingerprint field.
constexpr std::uint64_t kServeFlashFingerprint = 0x2fa7ae0e48b15b62ull;
// The plain §6 strategy weeks, one per strategy, hashed with
// exec_outcome_fingerprint: they pin every executor route (cloud fetch,
// cloud-then-AP staging, pre-download-first re-decision, AP and direct
// downloads) and the LAN-stage draws. Recorded before the executor's
// per-task closures were folded into one task table, which had to
// reproduce them exactly.
constexpr std::uint64_t kOdrWeekFingerprint = 0x76971b9bd6754bf1ull;
constexpr std::uint64_t kCloudOnlyWeekFingerprint = 0xd8e30511384b98e4ull;
constexpr std::uint64_t kApOnlyWeekFingerprint = 0xb65fefe5fbcd277full;
constexpr std::uint64_t kAlwaysHybridWeekFingerprint = 0x563354678efe3164ull;
constexpr std::uint64_t kAmsWeekFingerprint = 0x1ca2b19d0567ec5bull;
// The ODR week under the severe chaos plan with circuit breakers: pins
// every breaker verdict the outcomes feed (the cloud breaker opens once;
// at this scale no arrival lands while it is open, so nothing reroutes).
constexpr std::uint64_t kOdrSevereBreakersFingerprint = 0xe7b0251fe1cbf14eull;
constexpr std::uint64_t kOdrSevereBreakersReroutes = 0;
constexpr std::uint64_t kOdrSevereCloudBreakerOpenings = 1;
// The §5 AP replay's task results, hashed in completion order by
// ap_replay_fingerprint below.
constexpr std::uint64_t kApReplayFingerprint = 0xa6efa9241165b543ull;

analysis::ExperimentConfig chaos_config(int plan_level) {
  analysis::ExperimentConfig config =
      analysis::make_scaled_config(kDivisor, kSeed);
  config.cloud.degraded_admission = true;
  config.fault_plan = fault::make_chaos_plan(plan_level);
  return config;
}

TEST(DeterminismTest, BaselinePlanMatchesGoldenFingerprint) {
  const auto result = analysis::run_cloud_replay(chaos_config(0));
  EXPECT_EQ(analysis::outcome_fingerprint(result.outcomes),
            kBaselineFingerprint);
}

TEST(DeterminismTest, SeverePlanMatchesGoldenFingerprint) {
  const auto result = analysis::run_cloud_replay(chaos_config(3));
  EXPECT_EQ(analysis::outcome_fingerprint(result.outcomes),
            kSevereFingerprint);
}

TEST(DeterminismTest, SeverePlanWithHashingMatchesGoldenFingerprint) {
  // In-run state hashing (the divergence-triage journal) must be a pure
  // reader: the severe week run WITH a hash cadence reproduces the same
  // golden fingerprint as the unhashed replay above.
  snapshot::WorldOptions options;
  options.hash_every_events = 500;
  snapshot::CloudWorld world(chaos_config(3), options);
  world.run();
  EXPECT_FALSE(world.hashes().empty());
  EXPECT_EQ(analysis::outcome_fingerprint(world.finalize().outcomes),
            kSevereFingerprint);
}

TEST(DeterminismTest, SeverePlanKillAndResumeMatchesGoldenFingerprint) {
  // The same golden value must survive a mid-week kill + restore: the
  // checkpoint subsystem serializes the solver's flow state (including the
  // scheduled-rate field that decides whether a solve keeps a pending
  // completion), so a resumed world replays the identical event stream.
  const auto cfg = chaos_config(3);
  snapshot::WorldOptions options;  // no file writes, default ticks

  snapshot::CloudWorld baseline(cfg, options);
  const std::uint64_t total_events = baseline.run();
  ASSERT_GT(total_events, 100u);
  EXPECT_EQ(analysis::outcome_fingerprint(baseline.finalize().outcomes),
            kSevereFingerprint);

  snapshot::CloudWorld victim(cfg, options);
  victim.run(total_events / 2);
  const std::string ckpt = victim.save_to_buffer();

  snapshot::CloudWorld resumed(cfg, options, ckpt);
  resumed.run();
  EXPECT_EQ(analysis::outcome_fingerprint(resumed.finalize().outcomes),
            kSevereFingerprint);
}

serve::ServeConfig serve_flash_config() {
  // Mirrors bench/serve_load's flash run at default flags (divisor 4000,
  // 12 h at 0.01 tasks/s, diurnal on, 6x flash on the hot file mid-plan,
  // full hedged stack).
  serve::ServeConfig cfg;
  cfg.world.experiment = analysis::make_scaled_config(kDivisor, kSeed);
  cfg.world.experiment.cloud.degraded_admission = true;
  cfg.world.experiment.cloud.retry_budget_enabled = true;
  cfg.world.strategy = core::Strategy::kHedged;
  cfg.world.use_circuit_breakers = true;
  cfg.max_inflight = 64;
  cfg.queue_capacity = 256;
  const SimTime duration = 720 * kMinute;
  cfg.traffic.phases.push_back({duration, 0.01});
  cfg.traffic.diurnal = true;
  cfg.traffic.diurnal_shape.duration = duration;
  cfg.traffic.diurnal_shape.daily_growth = 0.0;
  cfg.traffic.flash.start = duration / 3;
  cfg.traffic.flash.duration = duration / 3;
  cfg.traffic.flash.rate_multiplier = 6.0;
  cfg.traffic.flash.hot_file_fraction = 0.5;
  cfg.traffic.flash.hot_file = 0;
  return cfg;
}

TEST(DeterminismTest, ServeFlashCrowdMatchesGoldenFingerprint) {
  // Same seed + same rate plan must reproduce the admission/drop/latency
  // fingerprint bit for bit.
  serve::ServiceLoop loop(serve_flash_config());
  const serve::ServeResult result = loop.run();
  EXPECT_GT(result.offered, 0u);
  EXPECT_EQ(result.offered,
            result.admitted + result.shed_unpopular + result.dropped_full);
  EXPECT_EQ(result.fingerprint, kServeFlashFingerprint);
}

TEST(DeterminismTest, ServeFlashCrowdWithTelemetryMatchesGoldenFingerprint) {
  // The live telemetry plane (admission-verdict spans + the windowed
  // metrics time-series) is pure derived state: arming it must not move a
  // single rng draw or event, so the telemetry-ON run reproduces the same
  // pinned golden as the bare run above. Also pins the window/SLO
  // agreement: the exporter's per-window p99 verdicts are computed from
  // the same completion stream as the SLO tracker's.
  obs::ObsConfig ocfg;
  ocfg.tracing = false;
  ocfg.spans = true;
  ocfg.metrics_ts = true;
  ocfg.dump_on_fault_fired = false;
  ocfg.dump_on_overload = false;
  obs::ScopedObserver obs(ocfg);

  serve::ServiceLoop loop(serve_flash_config());
  const serve::ServeResult result = loop.run();
  EXPECT_EQ(result.fingerprint, kServeFlashFingerprint);

  const obs::MetricsTimeSeries* mts = obs->metrics_ts();
  ASSERT_NE(mts, nullptr);
  EXPECT_FALSE(mts->rows().empty());
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  for (const obs::MetricsTsRow& row : mts->rows()) {
    offered += row.offered;
    completed += row.completed;
  }
  EXPECT_EQ(offered, result.offered);
  EXPECT_EQ(completed, result.completed);
  EXPECT_EQ(mts->violation_windows(), result.slo.violation_windows);
}

TEST(DeterminismTest, HedgedWeekMatchesGoldenFingerprint) {
  // Hedging races two clones per task and cancels the loser with a
  // deferred event; this pins that the whole dance — clone launches,
  // loser-cancel ordering, budget charges — is bit-for-bit deterministic.
  analysis::StrategyReplayConfig config;
  config.experiment = analysis::make_scaled_config(kDivisor, kSeed);
  config.strategy = core::Strategy::kHedged;
  const auto result = analysis::run_strategy_replay(config);
  EXPECT_GT(result.hedge_pairs, 0u);
  EXPECT_EQ(analysis::exec_outcome_fingerprint(result.outcomes),
            kHedgedWeekFingerprint);
}

analysis::StrategyReplayConfig strategy_config(core::Strategy strategy) {
  analysis::StrategyReplayConfig config;
  config.experiment = analysis::make_scaled_config(kDivisor, kSeed);
  config.strategy = strategy;
  return config;
}

TEST(DeterminismTest, StrategyWeeksMatchGoldenFingerprints) {
  const struct {
    core::Strategy strategy;
    std::uint64_t golden;
  } weeks[] = {
      {core::Strategy::kOdr, kOdrWeekFingerprint},
      {core::Strategy::kCloudOnly, kCloudOnlyWeekFingerprint},
      {core::Strategy::kApOnly, kApOnlyWeekFingerprint},
      {core::Strategy::kAlwaysHybrid, kAlwaysHybridWeekFingerprint},
      {core::Strategy::kAms, kAmsWeekFingerprint},
  };
  for (const auto& week : weeks) {
    const auto result = analysis::run_strategy_replay(
        strategy_config(week.strategy));
    EXPECT_FALSE(result.outcomes.empty());
    EXPECT_EQ(analysis::exec_outcome_fingerprint(result.outcomes),
              week.golden)
        << core::strategy_name(week.strategy);
  }
}

TEST(DeterminismTest, OdrSevereWeekWithBreakersMatchesGoldenFingerprint) {
  analysis::StrategyReplayConfig config = strategy_config(core::Strategy::kOdr);
  config.experiment.fault_plan = fault::make_chaos_plan(3);
  config.use_circuit_breakers = true;
  const auto result = analysis::run_strategy_replay(config);
  EXPECT_EQ(analysis::exec_outcome_fingerprint(result.outcomes),
            kOdrSevereBreakersFingerprint);
  EXPECT_EQ(result.reroutes, kOdrSevereBreakersReroutes);
  EXPECT_EQ(result.cloud_breaker_openings, kOdrSevereCloudBreakerOpenings);
}

// FNV-1a over each AP task's identity, AP and download result, in the
// order the replay recorded them.
std::uint64_t ap_replay_fingerprint(const analysis::ApReplayResult& result) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const analysis::ApTaskResult& t : result.tasks) {
    mix(t.request.task_id);
    for (const char c : t.ap_name) mix(static_cast<unsigned char>(c));
    mix(static_cast<std::uint64_t>(t.result.success));
    mix(static_cast<std::uint64_t>(t.result.cause));
    mix(static_cast<std::uint64_t>(t.result.started_at));
    mix(static_cast<std::uint64_t>(t.result.finished_at));
    mix(t.result.bytes_downloaded);
    mix(t.result.traffic_bytes);
  }
  return h;
}

TEST(DeterminismTest, ApReplayMatchesGoldenFingerprint) {
  analysis::ApReplayConfig config;
  config.experiment = analysis::make_scaled_config(kDivisor, kSeed);
  const auto result = analysis::run_ap_replay(config);
  EXPECT_FALSE(result.tasks.empty());
  EXPECT_EQ(ap_replay_fingerprint(result), kApReplayFingerprint);
}

}  // namespace
}  // namespace odr
