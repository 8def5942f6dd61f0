#include "serve/service_loop.h"

#include <algorithm>

#include "analysis/obs_wiring.h"
#include "ap/ap_models.h"
#include "obs/observer.h"
#include "workload/file.h"

namespace odr::serve {

namespace {

#if ODR_OBS_ENABLED
// Closes the span of a shed/dropped arrival on the spot: a zero-duration
// kAdmission marker and a kRejected terminal whose cause names the
// verdict. The cause literals are static-duration, as SpanTerminal
// requires, and flow into the attribution taxonomy and the per-window
// telemetry as ("shed"|"dropped", cause, popularity) rows.
void finish_refused_span(std::uint64_t task_id, SimTime t,
                         std::string_view cause,
                         workload::PopularityClass cls) {
  obs::Observer* o = obs::current();
  if (o == nullptr || o->journal() == nullptr) return;
  obs::TaskJournal* journal = o->journal();
  journal->on_submit(task_id, t, obs::SpanOrigin::kCloud);
  journal->on_stage(task_id, obs::Stage::kAdmission, t, t);
  obs::SpanTerminal term;
  term.outcome = obs::SpanOutcome::kRejected;
  term.cause = cause;
  term.popularity = workload::popularity_class_name(cls);
  journal->on_finish(task_id, t, term);
}
#endif  // ODR_OBS_ENABLED

}  // namespace

ServiceLoop::ServiceLoop(const ServeConfig& config)
    : config_(config),
      net_(sim_),
      rng_(config.experiment.seed),
      slo_(config.slo) {
  catalog_ = std::make_unique<workload::Catalog>(config_.experiment.catalog,
                                                 rng_);

  // Same §6.2 testbed convention as run_strategy_replay: user lines are
  // clamped to the premises ADSL rate.
  workload::UserModelParams user_params = config_.experiment.users;
  user_params.bandwidth_max =
      std::min(user_params.bandwidth_max,
               config_.premises_line_rate * kTransportEfficiency);
  users_ = std::make_unique<workload::UserPopulation>(user_params, rng_);

  cloud_ = std::make_unique<cloud::XuanfengCloud>(
      sim_, net_, *catalog_, config_.experiment.sources,
      config_.experiment.cloud, rng_);

  Rng warm_rng = rng_.fork();
  analysis::warm_cloud(*cloud_, *catalog_,
                       config_.experiment.requests.num_requests,
                       config_.experiment.warmup_weeks, warm_rng);

  if (config_.users_have_ap) {
    for (const auto& hw :
         {odr::ap::kHiWiFi, odr::ap::kMiWiFi, odr::ap::kNewifi}) {
      odr::ap::SmartApConfig c;
      c.hardware = hw;
      c.device = hw.default_device;
      c.filesystem = hw.default_filesystem;
      c.line_rate = config_.premises_line_rate;
      aps_.push_back(std::make_unique<odr::ap::SmartAp>(
          sim_, net_, c, config_.experiment.sources, rng_));
    }
  }

  core::Executor::Config exec_cfg;
  exec_cfg.premises_line_rate = config_.premises_line_rate;
  exec_cfg.redirector = config_.redirector;
  executor_ = std::make_unique<core::Executor>(sim_, net_, *catalog_, *cloud_,
                                               config_.experiment.sources,
                                               exec_cfg, rng_);
  redirector_ = std::make_unique<core::Redirector>(config_.redirector);

  if (config_.use_circuit_breakers) {
    cloud_breaker_.emplace(sim_, config_.breaker);
    ap_breaker_.emplace(sim_, config_.breaker);
    executor_->set_substrate_breakers(&*cloud_breaker_, &*ap_breaker_);
  }

  // The generator owns its own forked stream, so the arrival sequence is
  // independent of how many draws the engine makes serving each task —
  // backpressure changes what the engine does, never what arrives.
  gen_ = std::make_unique<TrafficGen>(config_.traffic, *catalog_, *users_,
                                      rng_.fork());

  if (!config_.experiment.fault_plan.empty()) {
    injector_.emplace(sim_, rng_);
    injector_->attach_cloud(*cloud_, net_);
    for (auto& ap : aps_) injector_->attach_ap(ap.get());
    injector_->load(config_.experiment.fault_plan);
  }

  if (config_.strategy == core::Strategy::kHedged) {
    core::HedgeConfig hedge_cfg;
    hedge_cfg.enabled = true;
    hedges_.emplace(hedge_cfg);
    hedges_->set_budget(&cloud_->predownloaders().retry_budget());
    executor_->set_hedging(&*hedges_);
  }
}

ServiceLoop::~ServiceLoop() = default;

void ServiceLoop::schedule_next_arrival() {
  workload::WorkloadRecord r;
  if (!gen_->next(r)) return;  // plan exhausted; the loop drains
  next_arrival_ = std::move(r);
  sim_.schedule_at(next_arrival_->request_time, [this] { on_arrival(); });
}

void ServiceLoop::on_arrival() {
  Queued task;
  task.record = std::move(*next_arrival_);
  next_arrival_.reset();
  // Open loop: the next arrival is scheduled before this one is even
  // admitted — the generator never waits on the service.
  schedule_next_arrival();

  ++result_.offered;
  const workload::WorkloadRecord& r = task.record;
  const workload::PopularityClass cls = workload::classify_popularity(
      catalog_->file(r.file).expected_weekly_requests);

  // Admission control in front of the bounded queue. Verdict codes feed
  // the fingerprint: 0 admit, 1 shed (degraded mode), 2 drop (full) —
  // the same ordering obs::AdmissionVerdict uses, so the cast below maps
  // codes to telemetry verdicts directly.
  std::uint64_t verdict;
  if (queue_.size() >= config_.queue_capacity) {
    verdict = 2;
    ++result_.dropped_full;
    ODR_COUNT("serve.backpressure.drops");
    ODR_OBS(finish_refused_span(r.task_id, r.request_time, "queue_full", cls);)
  } else if (static_cast<double>(queue_.size()) >=
                 config_.shed_watermark *
                     static_cast<double>(config_.queue_capacity) &&
             cls == workload::PopularityClass::kUnpopular) {
    verdict = 1;
    ++result_.shed_unpopular;
    ODR_COUNT("serve.admission.shed_unpopular");
    ODR_OBS(
        finish_refused_span(r.task_id, r.request_time, "shed_unpopular", cls);)
  } else {
    verdict = 0;
    ++result_.admitted;
    ODR_COUNT("serve.admission.admitted");
    // Open the span at arrival, not dispatch: the first opener wins in
    // the journal, so the executor's later on_submit is a no-op and the
    // span's wall time includes queue wait.
    ODR_SPAN(on_submit(r.task_id, r.request_time, obs::SpanOrigin::kCloud));
    queue_.push_back(std::move(task));
    result_.peak_queue_depth =
        std::max(result_.peak_queue_depth, queue_.size());
  }
  mix(r.task_id);
  mix(verdict);
  ODR_GAUGE("serve.queue.depth", queue_.size());
  ODR_METRICS_TS(on_verdict(r.request_time,
                            static_cast<obs::AdmissionVerdict>(verdict),
                            queue_.size(), inflight_));
  pump();
}

void ServiceLoop::pump() {
  if (pumping_) return;  // a synchronous completion re-entered; outer loop refills
  pumping_ = true;
  while (inflight_ < config_.max_inflight && !queue_.empty()) {
    Queued task = std::move(queue_.front());
    queue_.pop_front();
    ODR_GAUGE("serve.queue.depth", queue_.size());
    dispatch(std::move(task));
  }
  pumping_ = false;
}

void ServiceLoop::dispatch(Queued task) {
  ++inflight_;
  result_.peak_inflight = std::max(result_.peak_inflight, inflight_);
  ODR_GAUGE("serve.inflight", inflight_);

  const workload::WorkloadRecord& record = task.record;
  const workload::User& user = users_->user(record.user_id);
  odr::ap::SmartAp* ap =
      aps_.empty() ? nullptr : aps_[dispatched_ % aps_.size()].get();
  ++dispatched_;

  const core::DecisionInput input = executor_->make_input(record, user, ap);
  const core::Decision decision =
      core::decide_with(config_.strategy, *redirector_, input);

  const SimTime arrival = record.request_time;
  // Queue wait charged to the admission stage: overloaded windows show
  // "admission" as the dominant stage when the queue, not the fetch
  // pipeline, is where the latency went.
  ODR_SPAN(on_stage(record.task_id, obs::Stage::kAdmission, arrival,
                    sim_.now()));
  executor_->execute(
      decision, record, user, ap,
      [this, arrival](const core::ExecOutcome& o) {
        --inflight_;
        const SimTime now = sim_.now();
        const SimTime latency = now - arrival;
        ++result_.completed;
        if (o.success) {
          ++result_.succeeded;
        } else {
          ++result_.failed;
          if (o.rejected) ++result_.rejected;
          if (o.cause == proto::FailureCause::kNone ||
              o.cause == proto::FailureCause::kAborted) {
            ++result_.unclassified_failures;
          }
        }
        slo_.on_complete(latency, o.success, now);
        ODR_METRICS_TS(
            on_complete(now, latency, o.success, queue_.size(), inflight_));
        mix(o.task_id);
        mix(0x100u + static_cast<std::uint64_t>(o.success));
        mix(static_cast<std::uint64_t>(o.cause));
        mix(static_cast<std::uint64_t>(o.route));
        mix(static_cast<std::uint64_t>(o.rejected));
        mix(static_cast<std::uint64_t>(latency));
        ODR_COUNT("serve.completed");
        ODR_GAUGE("serve.inflight", inflight_);
        pump();
      });
}

ServeResult ServiceLoop::run() {
  const SimTime plan_end = gen_->plan_end();
  analysis::wire_cloud_observability(sim_, net_, *cloud_, plan_end + kDay);
  if (cloud_breaker_) {
    analysis::wire_breaker_probe("core.breaker.cloud", *cloud_breaker_);
  }
  if (ap_breaker_) {
    analysis::wire_breaker_probe("core.breaker.ap", *ap_breaker_);
  }
  // Telemetry windows adopt the SLO evaluation window and p99 target so
  // every exported row lines up with a SloTracker window. Must follow the
  // wiring above: wire_cloud_observability's begin_run() resets the
  // exporter, and begin_serve re-baselines it with the serve shape.
  ODR_METRICS_TS(
      begin_serve(config_.slo.window, config_.slo.p99_latency_target));

  schedule_next_arrival();
  sim_.run();
  // Close every telemetry window through the drain point so the trailing
  // partial window is exported too.
  ODR_METRICS_TS(finish(sim_.now()));

  result_.plan_duration = plan_end;
  result_.drained_at = sim_.now();
  result_.offered_rate_tasks_per_sec =
      plan_end > 0
          ? static_cast<double>(result_.offered) / to_seconds(plan_end)
          : 0.0;
  result_.slo = slo_.report(plan_end, result_.offered);
  const core::RetryBudget& budget = cloud_->predownloaders().retry_budget();
  result_.budget_granted = budget.granted();
  result_.budget_denied = budget.denied();
  if (injector_) result_.faults_fired = injector_->total_fired();
  if (hedges_) result_.hedge_pairs = hedges_->pairs_launched();
  result_.fingerprint = fingerprint_;
  return result_;
}

}  // namespace odr::serve
