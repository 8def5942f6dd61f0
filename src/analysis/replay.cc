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
#include "net/network.h"
#include "obs/observer.h"
#include "sim/simulator.h"

namespace odr::analysis {
namespace {

// Rough per-attempt pre-download success probability by popularity, used
// only to warm the storage pool (the measurement week itself uses the real
// source models). Shape: unpopular files often failed in past weeks too.
double warm_success_probability(double weekly_popularity) {
  const double fail = 0.90 * std::exp(-weekly_popularity / 1.6) + 0.02;
  return 1.0 - std::min(0.95, fail);
}

}  // namespace

void warm_cloud(cloud::XuanfengCloud& cloud, const workload::Catalog& catalog,
                std::size_t weekly_requests, int weeks, Rng& warm_rng) {
  for (int week = 0; week < weeks; ++week) {
    const bool last_week = week == weeks - 1;
    for (std::size_t i = 0; i < weekly_requests; ++i) {
      const workload::FileIndex idx = catalog.sample_request(warm_rng);
      const workload::FileInfo& file = catalog.file(idx);
      if (last_week) {
        const SimTime t =
            -kWeek + static_cast<SimTime>((static_cast<double>(i) + 0.5) *
                                          static_cast<double>(kWeek) /
                                          static_cast<double>(weekly_requests));
        cloud.content_db().record_request(idx, t);
      }
      if (!file.born_before_trace) continue;  // did not exist yet
      if (cloud.storage().contains(file.content_id)) continue;
      if (warm_rng.bernoulli(
              warm_success_probability(file.expected_weekly_requests))) {
        cloud.warm_cache(file);
      }
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
    if (r.isp == net::Isp::kUnicom && r.access_bandwidth > 0.0) {
      sampled.push_back(r);
    }
  }
  rng.shuffle(sampled);
  if (sampled.size() > config.sample_size) sampled.resize(config.sample_size);

  // The three testbed APs, each on its own 20 Mbps Unicom ADSL link, in
  // their shipping storage configuration (§5.1).
  struct TestbedAp {
    std::unique_ptr<odr::ap::SmartAp> ap;
    std::string name;
  };
  std::vector<TestbedAp> aps;
  auto add_ap = [&](const odr::ap::ApHardware& hw) {
    odr::ap::SmartApConfig c;
    c.hardware = hw;
    c.device = hw.default_device;
    c.filesystem = hw.default_filesystem;
    aps.push_back(TestbedAp{
        std::make_unique<odr::ap::SmartAp>(sim, net, c,
                                           config.experiment.sources, rng),
        std::string(hw.name)});
  };
  add_ap(odr::ap::kHiWiFi);
  add_ap(odr::ap::kMiWiFi);
  add_ap(odr::ap::kNewifi);

  ApReplayResult result;
  result.tasks.reserve(sampled.size());

  // Sequential replay per AP: request i+1 starts when request i completes
  // or fails (§5.1). The sample is split across the three APs.
  struct Runner {
    std::vector<workload::WorkloadRecord> queue;
    std::size_t next = 0;
  };
  std::vector<Runner> runners(aps.size());
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    runners[i % aps.size()].queue.push_back(sampled[i]);
  }

  // Self-referential chaining: each completion schedules the next request.
  std::function<void(std::size_t)> start_next = [&](std::size_t ap_idx) {
    Runner& runner = runners[ap_idx];
    if (runner.next >= runner.queue.size()) return;
    const workload::WorkloadRecord request = runner.queue[runner.next++];
    const workload::FileInfo& file = catalog.file(request.file);
    const Rate restriction = config.unrestricted_rate
                                 ? net::kUnlimitedRate
                                 : request.access_bandwidth;
    ODR_SPAN(on_submit(request.task_id, sim.now(), obs::SpanOrigin::kAp));
    aps[ap_idx].ap->predownload(
        file, restriction,
        [&, ap_idx, request, file](const proto::DownloadResult& r) {
          ODR_OBS({
            ODR_SPAN(on_stage(request.task_id, obs::Stage::kApFetch,
                              r.started_at, r.finished_at));
            obs::SpanTerminal term;
            term.outcome = r.success ? obs::SpanOutcome::kSuccess
                                     : obs::SpanOutcome::kFailed;
            term.cause = proto::failure_cause_name(r.cause);
            term.popularity = workload::popularity_class_name(
                workload::classify_popularity(file.expected_weekly_requests));
            term.pre_success = r.success;
            term.fetch_kbps = rate_to_kbps(r.average_rate);
            ODR_SPAN(on_finish(request.task_id, sim.now(), term));
          })
          ApTaskResult task;
          task.request = request;
          task.result = r;
          task.ap_name = aps[ap_idx].name;
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
        });
  };
  // Wire before the chain starts: start_next opens the first spans
  // immediately (not via a scheduled event), and wiring resets the journal.
  // Sequential chaining means the finish time is workload-dependent; give
  // the sampler a generous window rather than an exact horizon.
  wire_sim_observability(sim, 8 * kWeek);
  for (std::size_t i = 0; i < aps.size(); ++i) start_next(i);

  sim.run();
  return result;
}

StrategyReplayResult run_strategy_replay(const StrategyReplayConfig& config) {
  sim::Simulator sim;
  net::Network net(sim);
  Rng rng(config.experiment.seed);

  workload::Catalog catalog(config.experiment.catalog, rng);

  // §6.2 testbed: clamp every user line to the 20 Mbps ADSL of the
  // benchmark environment.
  workload::UserModelParams user_params = config.experiment.users;
  user_params.bandwidth_max = std::min(
      user_params.bandwidth_max,
      config.premises_line_rate * kTransportEfficiency);
  workload::UserPopulation users(user_params, rng);

  workload::RequestGenerator generator(config.experiment.requests);
  std::vector<workload::WorkloadRecord> requests =
      generator.generate(catalog, users, rng);

  cloud::XuanfengCloud cloud(sim, net, catalog, config.experiment.sources,
                             config.experiment.cloud, rng);

  Rng warm_rng = rng.fork();
  warm_cloud(cloud, catalog, config.experiment.requests.num_requests,
             config.experiment.warmup_weeks, warm_rng);

  // Per-household smart APs would be one object per user; the testbed uses
  // the three models round-robin, which preserves the hardware mix.
  std::vector<std::unique_ptr<odr::ap::SmartAp>> aps;
  if (config.users_have_ap) {
    for (const auto& hw :
         {odr::ap::kHiWiFi, odr::ap::kMiWiFi, odr::ap::kNewifi}) {
      odr::ap::SmartApConfig c;
      c.hardware = hw;
      c.device = hw.default_device;
      c.filesystem = hw.default_filesystem;
      c.line_rate = config.premises_line_rate;
      aps.push_back(std::make_unique<odr::ap::SmartAp>(
          sim, net, c, config.experiment.sources, rng));
    }
  }

  core::Executor::Config exec_cfg;
  exec_cfg.premises_line_rate = config.premises_line_rate;
  exec_cfg.redirector = config.redirector;
  core::Executor executor(sim, net, catalog, cloud,
                          config.experiment.sources, exec_cfg, rng);
  core::Redirector redirector(config.redirector);

  // Opt-in substrate circuit breakers and fault injection. The injector
  // forks its rng only after the workload is generated, so the same seed
  // yields the identical request stream under every plan.
  std::optional<core::CircuitBreaker> cloud_breaker;
  std::optional<core::CircuitBreaker> ap_breaker;
  if (config.use_circuit_breakers) {
    cloud_breaker.emplace(sim, config.breaker);
    ap_breaker.emplace(sim, config.breaker);
    executor.set_substrate_breakers(&*cloud_breaker, &*ap_breaker);
  }
  std::optional<fault::FaultInjector> injector;
  if (!config.experiment.fault_plan.empty()) {
    injector.emplace(sim, rng);
    injector->attach_cloud(cloud, net);
    for (auto& ap : aps) injector->attach_ap(ap.get());
    injector->load(config.experiment.fault_plan);
  }

  // HedgedFetch: the coordinator drives request cloning in the executor,
  // charging every extra clone against the cloud's shared retry/hedge
  // budget (the same pool VM front-requeue retries draw from). Any other
  // strategy leaves the executor's hedging hook null — zero extra events,
  // zero extra rng draws, byte-identical outcomes.
  std::optional<core::HedgeCoordinator> hedges;
  if (config.strategy == core::Strategy::kHedged) {
    core::HedgeConfig hedge_cfg;
    hedge_cfg.enabled = true;
    hedges.emplace(hedge_cfg);
    hedges->set_budget(&cloud.predownloaders().retry_budget());
    executor.set_hedging(&*hedges);
  }

  StrategyReplayResult result;
  result.outcomes.reserve(requests.size());

  // The §4 world's arrival scheme: request i arrives as reserved event
  // first_arrival + i, and each arrival queues only its successor.
  std::size_t ap_writes = 0, ap_throttled = 0;
  const sim::EventId first_arrival = sim.reserve(requests.size());
  std::function<void(std::size_t)> arrive;
  const auto queue = [&](std::size_t i) {
    if (i >= requests.size()) return;
    sim.schedule_reserved(first_arrival + i, requests[i].request_time,
                          [&arrive, i] { arrive(i); });
  };
  arrive = [&](std::size_t i) {
    queue(i + 1);
    const workload::WorkloadRecord& request = requests[i];
    odr::ap::SmartAp* ap =
        aps.empty() ? nullptr : aps[i % aps.size()].get();
    const workload::User& user = users.user(request.user_id);
    const core::DecisionInput input = executor.make_input(request, user, ap);
    const core::Decision decision =
        core::decide_with(config.strategy, redirector, input);
    // Bottleneck-4 accounting: the AP's storage throttles whenever the
    // route writes through it faster than its ceiling.
    if (ap != nullptr && (decision.route == core::Route::kSmartAp ||
                          decision.route == core::Route::kCloudThenSmartAp)) {
      ++ap_writes;
      const Rate inbound = std::min(user.access_bandwidth,
                                    config.premises_line_rate);
      if (ap->storage_write_ceiling() < inbound) ++ap_throttled;
    }
    executor.execute(decision, request, user, ap,
                     [&result](const core::ExecOutcome& outcome) {
                       result.outcomes.push_back(outcome);
                     });
  };
  queue(0);

  const SimTime horizon = requests.empty() ? 0 : requests.back().request_time;
  wire_cloud_observability(sim, net, cloud, horizon + kDay);
  if (cloud_breaker) wire_breaker_probe("core.breaker.cloud", *cloud_breaker);
  if (ap_breaker) wire_breaker_probe("core.breaker.ap", *ap_breaker);

  sim.run();

  // Same reporting convention as the §4 week: classify by the file's
  // full-week request count.
  {
    std::unordered_map<workload::FileIndex, double> week_counts;
    for (const auto& r : requests) week_counts[r.file] += 1.0;
    for (auto& o : result.outcomes) {
      if (o.task_id < 1 || o.task_id > requests.size()) continue;
      o.popularity = workload::classify_popularity(
          week_counts[requests[o.task_id - 1].file]);
    }
  }

  result.duration = config.experiment.requests.duration;
  result.cloud_capacity = config.experiment.cloud.total_upload_capacity;
  result.storage_throttled_fraction =
      requests.empty() ? 0.0
                       : static_cast<double>(ap_throttled) /
                             static_cast<double>(requests.size());
  result.cache_hit_ratio = cloud.storage().hit_ratio();
  result.reroutes = executor.reroutes();
  if (cloud_breaker) result.cloud_breaker_openings = cloud_breaker->times_opened();
  if (ap_breaker) result.ap_breaker_openings = ap_breaker->times_opened();
  if (injector) result.faults_fired = injector->total_fired();
  if (hedges) {
    result.hedge_pairs = hedges->pairs_launched();
    result.hedge_primary_wins = hedges->primary_wins();
    result.hedge_secondary_wins = hedges->secondary_wins();
    result.hedge_both_failed = hedges->both_failed();
    result.hedge_budget_denied = hedges->budget_denied();
    result.hedge_cancelled_clones = hedges->cancelled_clones();
    result.hedge_wasted_bytes = hedges->wasted_bytes();
  }
  result.vm_retry_budget_denied = cloud.predownloaders().retry_budget_denied();
  return result;
}

}  // namespace odr::analysis
