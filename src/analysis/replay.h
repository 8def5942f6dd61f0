// Replay drivers: complete experiment environments in one call.
//
// Three drivers cover the paper's three experimental setups:
//   - run_cloud_replay     — §4: the full week through the Xuanfeng cloud.
//                            Declared in snapshot/world.h: the
//                            checkpointable snapshot::CloudWorld is the
//                            only §4 driver, and odr_snapshot sits above
//                            this library;
//   - run_ap_replay        — §5: a sampled Unicom workload replayed
//                            sequentially on the three smart APs;
//   - run_strategy_replay  — §6: a workload routed by ODR or a baseline
//                            strategy through all systems.
//
// The §6 world itself is StrategyWorld: the cloud, the three testbed APs,
// the executor and its redirector, breakers, faults and hedging, built and
// dispatched in one place. run_strategy_replay feeds it the generated
// week; serve::ServiceLoop feeds it open-loop arrivals. The two differ
// only in where their arrivals come from.
//
// This header also holds what the drivers share: the experiment config and
// its scaling, the §4 result, and the storage-pool warm-up.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ap/smart_ap.h"
#include "cloud/xuanfeng.h"
#include "core/circuit_breaker.h"
#include "core/executor.h"
#include "core/hedge.h"
#include "core/strategy.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "net/network.h"
#include "proto/download.h"
#include "sim/simulator.h"
#include "workload/catalog.h"
#include "workload/request_gen.h"
#include "workload/user_model.h"

namespace odr::analysis {

// Shared experiment scaling: all defaults model a 1/20-scale Xuanfeng week.
struct ExperimentConfig {
  std::uint64_t seed = 20151028;  // IMC'15 opened Oct 28, 2015
  workload::CatalogParams catalog;
  workload::UserModelParams users;
  workload::RequestGenParams requests;
  cloud::CloudConfig cloud;
  proto::SourceParams sources;
  // Weeks of request history used to warm the storage pool before the
  // measurement week. The real pool predates the trace by years; without
  // warming, every first request of the week would miss.
  int warmup_weeks = 4;
  // Infrastructure faults injected during the measurement week. An empty
  // plan (the default) adds zero RNG draws and zero events, so fault-free
  // replays are bit-identical with or without the fault layer linked in.
  fault::FaultPlan fault_plan;
  // Divergence-triage test hook: when nonzero, the §4 week (CloudWorld,
  // and so run_cloud_replay) consumes ONE extra draw from the cloud's rng
  // stream once `debug_burn_rng_at_event` events have executed — a
  // deliberate, minimal, single-event divergence that
  // bench/divergence_triage uses to prove tools/odr_bisect can localize a
  // real one. 0 (the default) adds zero draws, zero branches on the hot
  // path, and zero byte changes anywhere. The §5/§6 drivers ignore it.
  std::uint64_t debug_burn_rng_at_event = 0;
};

// Files in the measured week's catalog, the smallest of the counts
// make_scaled_config scales.
inline constexpr std::size_t kMeasuredFiles = 563517;

// The largest divisor make_scaled_config accepts: it scales the measured
// files to one. Every `--divisor` flag takes it as its upper bound.
inline constexpr double kMaxDivisor = static_cast<double>(kMeasuredFiles);

// Scales workload size and cloud capacity together by 1/divisor relative
// to the measured system (4.08M tasks, 563k files, 784k users, 30 Gbps).
// Throws std::invalid_argument unless 1 <= divisor <= kMaxDivisor (a
// larger one leaves zero files).
ExperimentConfig make_scaled_config(double divisor, std::uint64_t seed);

// The §4 week's result (snapshot::CloudWorld::finalize).
struct CloudReplayResult {
  std::vector<workload::WorkloadRecord> requests;
  std::vector<workload::TaskOutcome> outcomes;
  double cache_hit_ratio = 0.0;
  std::uint64_t fetch_rejections = 0;
  std::uint64_t fetch_admissions = 0;
  std::uint64_t privileged_paths = 0;
  SimTime duration = 0;
  Rate cloud_capacity = 0.0;
  // Fault-tolerance accounting (all zero on a fault-free run).
  std::uint64_t vm_crashes = 0;        // injected pre-downloader crashes
  std::uint64_t vm_retries = 0;        // retry/backoff re-submissions
  std::uint64_t vm_retries_exhausted = 0;
  std::uint64_t shed_fetches = 0;      // degraded-mode load shedding
  std::uint64_t oversubscribed_fetches = 0;  // highly-popular floor admits
  std::uint64_t storage_fault_evictions = 0;
  std::uint64_t faults_fired = 0;      // injector activations/crashes
  // Rejections split by popularity class (indexed by PopularityClass).
  std::array<std::uint64_t, 3> rejections_by_class{};
  // The user population (for impeded-fetch attribution).
  std::shared_ptr<workload::UserPopulation> users;
  std::shared_ptr<workload::Catalog> catalog;
};

// Rough per-attempt pre-download success probability by popularity, used
// only to warm a storage pool (the measurement week itself uses the real
// source models). Shape: unpopular files often failed in past weeks too.
double warm_success_probability(double weekly_popularity);

// Warms the storage pool AND the content database with `weeks` weeks of
// request history preceding the measurement week, drawing from `warm_rng`.
// The last warm week's requests are recorded with (ascending) timestamps in
// [-week, 0), so popularity queries at the start of the trace already see
// steady-state statistics — just like the years-old production database
// ODR queries (§6.1). Every driver that builds a Xuanfeng cloud calls it.
void warm_cloud(cloud::XuanfengCloud& cloud, const workload::Catalog& catalog,
                std::size_t weekly_requests, int weeks, Rng& warm_rng);

// --- §5 smart-AP replay ------------------------------------------------------

struct ApReplayConfig {
  ExperimentConfig experiment;
  std::size_t sample_size = 999;  // split across the three APs
  // Replay restriction: only Unicom users that reported bandwidth (§5.1).
  bool unrestricted_rate = false;  // true for the Table 2 max-speed runs
};

struct ApTaskResult {
  workload::WorkloadRecord request;
  proto::DownloadResult result;
  std::string ap_name;
  double weekly_popularity = 0.0;  // generator ground truth
};

struct ApReplayResult {
  std::vector<ApTaskResult> tasks;
  std::size_t failures = 0;
  std::size_t insufficient_seed_failures = 0;
  std::size_t http_failures = 0;
  std::size_t bug_failures = 0;
};

ApReplayResult run_ap_replay(const ApReplayConfig& config);

// --- §6 strategy replay ------------------------------------------------------

struct StrategyReplayConfig {
  ExperimentConfig experiment;
  core::Strategy strategy = core::Strategy::kOdr;
  // Redirector thresholds; ablation benches knock individual checks out
  // (e.g. playback_rate = 0 disables the Bottleneck-1 staging branch).
  core::RedirectorParams redirector;
  // §6.2 testbed: user lines clamped to 20 Mbps ADSL.
  static constexpr Rate premises_line_rate = core::Executor::kPremisesLineRate;
  // Opt-in circuit breakers between the executor and its substrates:
  // an open breaker reroutes traffic away from an unhealthy cloud/AP
  // (see core::CircuitBreaker). Pointless without a fault plan.
  bool use_circuit_breakers = false;
};

struct StrategyReplayResult {
  std::vector<core::ExecOutcome> outcomes;
  SimTime duration = 0;
  Rate cloud_capacity = 0.0;
  double storage_throttled_fraction = 0.0;
  double cache_hit_ratio = 0.0;
  // Circuit-breaker accounting (zero when breakers are off).
  std::uint64_t reroutes = 0;
  std::uint64_t cloud_breaker_openings = 0;
  std::uint64_t ap_breaker_openings = 0;
  std::uint64_t faults_fired = 0;
  // Hedging accounting (zero unless strategy == kHedged).
  std::uint64_t hedge_pairs = 0;
  std::uint64_t hedge_primary_wins = 0;
  std::uint64_t hedge_secondary_wins = 0;
  std::uint64_t hedge_both_failed = 0;
  std::uint64_t hedge_budget_denied = 0;
  std::uint64_t hedge_cancelled_clones = 0;
  Bytes hedge_wasted_bytes = 0;
  // VM retries shed because the shared retry/hedge budget ran dry.
  std::uint64_t vm_retry_budget_denied = 0;
};

// The §6 world: simulator, network, rng, catalog, users (lines clamped to
// premises_line_rate), the warmed cloud, the three testbed APs (every user
// owns one; the hardware models go round-robin), the executor with its
// redirector, and the optional breakers. start() arms fault injection and
// hedging. The cloud and the APs report to the executor, and the executor
// reports every dispatched arrival's outcome once, to the world's sink.
//
// RNG order contract (the determinism goldens pin it): the catalog draws
// first, then the users; then the week's trace, only when `draw_week`;
// then the cloud, its warm-up fork, the APs and the executor; then
// whatever the caller draws from rng() before start() (the service's
// traffic fork); then the fault injector's fork inside start(). Arrivals
// therefore fork before the fault layer: a fault plan never changes what
// arrives.
class StrategyWorld {
 public:
  StrategyWorld(const StrategyReplayConfig& config, bool draw_week,
                core::Executor::DoneFn done);

  StrategyWorld(const StrategyWorld&) = delete;
  StrategyWorld& operator=(const StrategyWorld&) = delete;

  sim::Simulator& sim() { return sim_; }
  Rng& rng() { return rng_; }
  const workload::Catalog& catalog() const { return catalog_; }
  const workload::UserPopulation& users() const { return users_; }
  const cloud::XuanfengCloud& cloud() const { return cloud_; }
  // The generated week (empty unless constructed with draw_week).
  const std::vector<workload::WorkloadRecord>& week() const { return week_; }

  // Arms the fault injector and hedging, then wires the ambient observer
  // and breaker probes over [0, horizon). Call once, before the first
  // arrival runs.
  void start(SimTime horizon);

  // Routes one arrival: the AP in slot `ap_slot % 3`, the strategy's
  // decision, Bottleneck-4 throttle accounting, then execution.
  void dispatch(const workload::WorkloadRecord& request,
                std::uint64_t ap_slot);

  // Fills everything but the outcomes: config echoes, cache, breaker,
  // fault, hedge and budget counters, and the throttled fraction of the
  // dispatched arrivals.
  void harvest(StrategyReplayResult& result) const;

 private:
  StrategyReplayConfig config_;
  sim::Simulator sim_;
  net::Network net_;
  Rng rng_;
  workload::Catalog catalog_;
  workload::UserPopulation users_;
  std::vector<workload::WorkloadRecord> week_;
  cloud::XuanfengCloud cloud_;
  // The APs and executor are built in the constructor body, after the
  // cloud's warm-up fork (the RNG order above).
  std::vector<std::unique_ptr<odr::ap::SmartAp>> aps_;
  std::optional<core::Executor> executor_;
  std::optional<core::CircuitBreaker> cloud_breaker_;
  std::optional<core::CircuitBreaker> ap_breaker_;
  std::optional<fault::FaultInjector> injector_;
  std::optional<core::HedgeCoordinator> hedges_;
  std::uint64_t dispatched_ = 0;
  std::uint64_t ap_throttled_ = 0;
};

StrategyReplayResult run_strategy_replay(const StrategyReplayConfig& config);

}  // namespace odr::analysis
