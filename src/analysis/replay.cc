#include "analysis/replay.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "analysis/obs_wiring.h"
#include "ap/ap_models.h"
#include "fault/injector.h"
#include "net/isp.h"
#include "net/network.h"
#include "obs/observer.h"
#include "sim/simulator.h"

namespace odr::analysis {
double warm_success_probability(double weekly_popularity) {
  const double fail = 0.90 * std::exp(-weekly_popularity / 1.6) + 0.02;
  return 1.0 - std::min(0.95, fail);
}

namespace {

// The three testbed APs, each on its own 20 Mbps ADSL line, in their
// shipping storage configuration (§5.1), all reporting to `done`.
std::vector<std::unique_ptr<odr::ap::SmartAp>> make_testbed_aps(
    sim::Simulator& sim, net::Network& net, const proto::SourceParams& sources,
    Rng& rng, const odr::ap::SmartAp::DoneFn& done) {
  std::vector<std::unique_ptr<odr::ap::SmartAp>> aps;
  for (const auto& hw :
       {odr::ap::kHiWiFi, odr::ap::kMiWiFi, odr::ap::kNewifi}) {
    odr::ap::SmartApConfig c;
    c.hardware = hw;
    c.device = hw.default_device;
    c.filesystem = hw.default_filesystem;
    aps.push_back(
        std::make_unique<odr::ap::SmartAp>(sim, net, c, sources, rng, done));
  }
  return aps;
}

// §6.2 testbed: every user line is clamped to the 20 Mbps ADSL of the
// benchmark environment.
workload::UserModelParams testbed_users(workload::UserModelParams params) {
  params.bandwidth_max =
      std::min(params.bandwidth_max,
               StrategyReplayConfig::premises_line_rate * kTransportEfficiency);
  return params;
}

}  // namespace

void warm_cloud(cloud::XuanfengCloud& cloud, const workload::Catalog& catalog,
                std::size_t weekly_requests, int weeks, Rng& warm_rng) {
  // Each file's warm-success probability, or -1 for a file born during the
  // trace: the loop reads one double per draw instead of a FileInfo.
  std::vector<double> success(catalog.size());
  for (std::size_t i = 0; i < success.size(); ++i) {
    const workload::FileInfo& file = catalog.files()[i];
    success[i] = file.born_before_trace
                     ? warm_success_probability(file.expected_weekly_requests)
                     : -1.0;
  }
  for (int week = 0; week < weeks; ++week) {
    const bool last_week = week == weeks - 1;
    for (std::size_t i = 0; i < weekly_requests; ++i) {
      const workload::FileIndex idx = catalog.sample_request(warm_rng);
      if (last_week) {
        const SimTime t =
            -kWeek + static_cast<SimTime>((static_cast<double>(i) + 0.5) *
                                          static_cast<double>(kWeek) /
                                          static_cast<double>(weekly_requests));
        cloud.content_db().record_request(idx, t);
      }
      if (success[idx] < 0.0) continue;  // did not exist yet
      if (cloud.storage().contains(idx)) continue;
      if (warm_rng.bernoulli(success[idx])) cloud.warm_cache(idx);
    }
  }
}

ExperimentConfig make_scaled_config(double divisor, std::uint64_t seed) {
  if (!(divisor >= 1.0 && divisor <= kMaxDivisor)) {
    throw std::invalid_argument(
        "make_scaled_config: divisor " + std::to_string(divisor) +
        " out of range (need 1 <= divisor <= " +
        std::to_string(kMeasuredFiles) + "; a larger one leaves zero files)");
  }
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.catalog.num_files = static_cast<std::size_t>(kMeasuredFiles / divisor);
  cfg.catalog.total_weekly_requests = 4084417 / divisor;
  cfg.requests.num_requests = static_cast<std::size_t>(4084417 / divisor);
  cfg.users.num_users = static_cast<std::size_t>(783944 / divisor);
  cfg.cloud.total_upload_capacity = gbps_to_rate(30.0 / divisor);
  cfg.cloud.storage_capacity = static_cast<Bytes>(2.0 * kPB / divisor);
  cfg.cloud.predownloader_count =
      static_cast<std::size_t>(std::max(50.0, 30000 / divisor));
  return cfg;
}

ApReplayResult run_ap_replay(const ApReplayConfig& config) {
  sim::Simulator sim;
  net::Network net(sim);
  Rng rng(config.experiment.seed);

  workload::Catalog catalog(config.experiment.catalog, rng);
  workload::UserPopulation users(config.experiment.users, rng);
  workload::RequestGenerator generator(config.experiment.requests);
  std::vector<workload::WorkloadRecord> all = generator.generate(catalog, users, rng);

  // §5.1 sampling: Unicom users with recorded access bandwidth, so the
  // replay can throttle to the user's real network conditions.
  std::vector<workload::WorkloadRecord> sampled;
  for (const auto& r : all) {
    const workload::User& u = users.user(r.user_id);
    if (u.isp == net::Isp::kUnicom && u.reported_bandwidth() > 0.0) {
      sampled.push_back(r);
    }
  }
  rng.shuffle(sampled);
  if (sampled.size() > config.sample_size) sampled.resize(config.sample_size);

  ApReplayResult result;
  result.tasks.reserve(sampled.size());

  // Sequential replay per AP: request i+1 starts when request i completes
  // or fails (§5.1). Sampled request i runs on AP i % 3, under id i, so
  // AP k walks k, k + 3, k + 6, ...
  std::vector<std::unique_ptr<odr::ap::SmartAp>> aps;
  std::vector<std::size_t> next;
  const auto start_next = [&](std::size_t ap_idx) {
    const std::size_t i = next[ap_idx];
    if (i >= sampled.size()) return;
    next[ap_idx] += aps.size();
    const workload::WorkloadRecord& request = sampled[i];
    const Rate restriction = config.unrestricted_rate
                                 ? net::kUnlimitedRate
                                 : users.user(request.user_id).access_bandwidth;
    ODR_SPAN(on_submit(request.task_id, sim.now(), obs::SpanOrigin::kAp));
    aps[ap_idx]->predownload(i, catalog.file(request.file), restriction);
  };
  const auto on_done = [&](std::uint64_t i, const proto::DownloadResult& r) {
    const workload::WorkloadRecord& request = sampled[i];
    const workload::FileInfo& file = catalog.file(request.file);
    const std::size_t ap_idx = i % aps.size();
    ODR_SPAN(on_stage(request.task_id, obs::Stage::kApFetch, r.started_at,
                      r.finished_at));
    obs::SpanTerminal term;
    term.outcome =
        r.success ? obs::SpanOutcome::kSuccess : obs::SpanOutcome::kFailed;
    term.cause = proto::failure_cause_name(r.cause);
    term.popularity = workload::popularity_class_name(
        workload::classify_popularity(file.expected_weekly_requests));
    term.pre_success = r.success;
    term.fetch_kbps = rate_to_kbps(r.average_rate);
    ODR_SPAN(on_finish(request.task_id, sim.now(), term));
    ApTaskResult task;
    task.request = request;
    task.result = r;
    task.ap_name = aps[ap_idx]->config().hardware.name;
    task.weekly_popularity = file.expected_weekly_requests;
    result.tasks.push_back(std::move(task));
    if (!r.success) {
      ++result.failures;
      switch (r.cause) {
        case proto::FailureCause::kInsufficientSeeds:
          ++result.insufficient_seed_failures;
          break;
        case proto::FailureCause::kPoorHttpConnection:
          ++result.http_failures;
          break;
        case proto::FailureCause::kSystemBug:
          ++result.bug_failures;
          break;
        default:
          break;
      }
    }
    start_next(ap_idx);
  };
  aps = make_testbed_aps(sim, net, config.experiment.sources, rng, on_done);
  for (std::size_t k = 0; k < aps.size(); ++k) next.push_back(k);

  // Wire before the chain starts: start_next opens the first spans
  // immediately (not via a scheduled event), and wiring resets the journal.
  // Sequential chaining means the finish time is workload-dependent; give
  // the sampler a generous window rather than an exact horizon.
  wire_sim_observability(sim, 8 * kWeek);
  for (std::size_t i = 0; i < aps.size(); ++i) start_next(i);

  sim.run();
  return result;
}

StrategyWorld::StrategyWorld(const StrategyReplayConfig& config,
                             bool draw_week, core::Executor::DoneFn done)
    : config_(config),
      net_(sim_),
      rng_(config.experiment.seed),
      catalog_(config.experiment.catalog, rng_),
      users_(testbed_users(config.experiment.users), rng_),
      week_(draw_week ? workload::RequestGenerator(config.experiment.requests)
                            .generate(catalog_, users_, rng_)
                      : std::vector<workload::WorkloadRecord>{}),
      cloud_(sim_, net_, catalog_, config.experiment.sources,
             config.experiment.cloud, rng_,
             [this](const workload::TaskOutcome& outcome) {
               executor_->on_cloud_outcome(outcome);
             }) {
  Rng warm_rng = rng_.fork();
  warm_cloud(cloud_, catalog_, config_.experiment.requests.num_requests,
             config_.experiment.warmup_weeks, warm_rng);
  // Per-household smart APs would be one object per user; the testbed uses
  // the three models round-robin, which preserves the hardware mix.
  aps_ = make_testbed_aps(
      sim_, net_, config_.experiment.sources, rng_,
      [this](std::uint64_t id, const proto::DownloadResult& result) {
        executor_->on_ap_outcome(id, result);
      });
  executor_.emplace(sim_, net_, catalog_, cloud_, config_.experiment.sources,
                    config_.redirector, rng_, std::move(done));
  if (config_.use_circuit_breakers) {
    cloud_breaker_.emplace(sim_, core::CircuitBreaker::Config{});
    ap_breaker_.emplace(sim_, core::CircuitBreaker::Config{});
    executor_->set_substrate_breakers(&*cloud_breaker_, &*ap_breaker_);
  }
}

void StrategyWorld::start(SimTime horizon) {
  // The injector forks its rng after every arrival source has, so the same
  // seed yields the identical arrivals under every plan.
  if (!config_.experiment.fault_plan.empty()) {
    injector_.emplace(sim_, rng_);
    injector_->attach_cloud(cloud_, net_);
    for (auto& ap : aps_) injector_->attach_ap(ap.get());
    injector_->load(config_.experiment.fault_plan);
  }

  // HedgedFetch: the coordinator drives request cloning in the executor,
  // charging every extra clone against the cloud's shared retry/hedge
  // budget (the same pool VM front-requeue retries draw from). Any other
  // strategy leaves the executor's hedging hook null — zero extra events,
  // zero extra rng draws, byte-identical outcomes.
  if (config_.strategy == core::Strategy::kHedged) {
    hedges_.emplace();
    hedges_->set_budget(&cloud_.predownloaders().retry_budget());
    executor_->set_hedging(&*hedges_);
  }

  wire_cloud_observability(sim_, net_, cloud_, horizon);
  if (cloud_breaker_) wire_breaker_probe("core.breaker.cloud", *cloud_breaker_);
  if (ap_breaker_) wire_breaker_probe("core.breaker.ap", *ap_breaker_);
}

void StrategyWorld::dispatch(const workload::WorkloadRecord& request,
                             std::uint64_t ap_slot) {
  ++dispatched_;
  odr::ap::SmartAp* ap = aps_[ap_slot % aps_.size()].get();
  const workload::User& user = users_.user(request.user_id);
  const core::DecisionInput input = executor_->make_input(request, user, ap);
  const core::Decision decision =
      core::decide_with(config_.strategy, executor_->redirector(), input);
  // Bottleneck-4 accounting: the AP's storage throttles whenever the
  // route writes through it faster than its ceiling.
  if (decision.route == core::Route::kSmartAp ||
      decision.route == core::Route::kCloudThenSmartAp) {
    const Rate inbound = std::min(user.access_bandwidth,
                                  StrategyReplayConfig::premises_line_rate);
    if (ap->storage_write_ceiling() < inbound) ++ap_throttled_;
  }
  executor_->execute(decision, request, user, ap);
}

void StrategyWorld::harvest(StrategyReplayResult& result) const {
  result.duration = config_.experiment.requests.duration;
  result.cloud_capacity = config_.experiment.cloud.total_upload_capacity;
  result.storage_throttled_fraction =
      dispatched_ == 0 ? 0.0
                       : static_cast<double>(ap_throttled_) /
                             static_cast<double>(dispatched_);
  result.cache_hit_ratio = cloud_.storage().hit_ratio();
  result.reroutes = executor_->reroutes();
  if (cloud_breaker_) {
    result.cloud_breaker_openings = cloud_breaker_->times_opened();
  }
  if (ap_breaker_) result.ap_breaker_openings = ap_breaker_->times_opened();
  if (injector_) result.faults_fired = injector_->total_fired();
  if (hedges_) {
    result.hedge_pairs = hedges_->pairs_launched();
    result.hedge_primary_wins = hedges_->primary_wins();
    result.hedge_secondary_wins = hedges_->secondary_wins();
    result.hedge_both_failed = hedges_->both_failed();
    result.hedge_budget_denied = hedges_->budget_denied();
    result.hedge_cancelled_clones = hedges_->cancelled_clones();
    result.hedge_wasted_bytes = hedges_->wasted_bytes();
  }
  result.vm_retry_budget_denied = cloud_.predownloaders().retry_budget_denied();
}

StrategyReplayResult run_strategy_replay(const StrategyReplayConfig& config) {
  StrategyReplayResult result;
  StrategyWorld world(config, /*draw_week=*/true,
                      [&result](const core::ExecOutcome& outcome) {
                        result.outcomes.push_back(outcome);
                      });
  const std::vector<workload::WorkloadRecord>& requests = world.week();
  sim::Simulator& sim = world.sim();

  world.start((requests.empty() ? 0 : requests.back().request_time) + kDay);
  result.outcomes.reserve(requests.size());

  // The §4 world's arrival scheme: request i arrives as reserved event
  // first_arrival + i, and each arrival queues only its successor.
  const sim::EventId first_arrival = sim.reserve(requests.size());
  std::function<void(std::size_t)> arrive;
  const auto queue = [&](std::size_t i) {
    if (i >= requests.size()) return;
    sim.schedule_reserved(first_arrival + i, requests[i].request_time,
                          [&arrive, i] { arrive(i); });
  };
  arrive = [&](std::size_t i) {
    queue(i + 1);
    world.dispatch(requests[i], i);
  };
  queue(0);

  sim.run();

  // Same reporting convention as the §4 week: classify by the file's
  // full-week request count.
  const std::vector<double> week_counts =
      workload::week_request_counts(requests, world.catalog().size());
  for (auto& o : result.outcomes) {
    if (o.task_id < 1 || o.task_id > requests.size()) continue;
    o.popularity = workload::classify_popularity(
        week_counts[requests[o.task_id - 1].file]);
  }

  world.harvest(result);
  return result;
}

}  // namespace odr::analysis
