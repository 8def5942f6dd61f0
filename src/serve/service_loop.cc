#include "serve/service_loop.h"

#include <algorithm>

#include "obs/observer.h"
#include "workload/file.h"

namespace odr::serve {

namespace {

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

}  // namespace

ServiceLoop::ServiceLoop(const ServeConfig& config)
    : config_(config),
      world_(config_.world, /*draw_week=*/false,
             [this](const core::ExecOutcome& o) { on_complete(o); }),
      // The generator owns its own forked stream, so the arrival sequence
      // is independent of how many draws the engine makes serving each
      // task — backpressure changes what the engine does, never what
      // arrives.
      gen_(config_.traffic, world_.catalog(), world_.users(),
           world_.rng().fork()),
      slo_(config_.slo) {}

void ServiceLoop::schedule_next_arrival() {
  workload::WorkloadRecord r;
  if (!gen_.next(r)) return;  // plan exhausted; the loop drains
  next_arrival_ = std::move(r);
  world_.sim().schedule_at(next_arrival_->request_time,
                           [this] { on_arrival(); });
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
      world_.catalog().file(r.file).expected_weekly_requests);

  // Admission control in front of the bounded queue. Verdict codes feed
  // the fingerprint: 0 admit, 1 shed (degraded mode), 2 drop (full) —
  // the same ordering obs::AdmissionVerdict uses, so the cast below maps
  // codes to telemetry verdicts directly.
  std::uint64_t verdict;
  if (queue_.size() >= config_.queue_capacity) {
    verdict = 2;
    ++result_.dropped_full;
    ODR_COUNT("serve.backpressure.drops");
    finish_refused_span(r.task_id, r.request_time, "queue_full", cls);
  } else if (static_cast<double>(queue_.size()) >=
                 config_.shed_watermark *
                     static_cast<double>(config_.queue_capacity) &&
             cls == workload::PopularityClass::kUnpopular) {
    verdict = 1;
    ++result_.shed_unpopular;
    ODR_COUNT("serve.admission.shed_unpopular");
    finish_refused_span(r.task_id, r.request_time, "shed_unpopular", cls);
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
  const SimTime arrival = record.request_time;
  // Queue wait charged to the admission stage: overloaded windows show
  // "admission" as the dominant stage when the queue, not the fetch
  // pipeline, is where the latency went.
  ODR_SPAN(on_stage(record.task_id, obs::Stage::kAdmission, arrival,
                    world_.sim().now()));
  world_.dispatch(record, dispatched_++);
}

void ServiceLoop::on_complete(const core::ExecOutcome& o) {
  --inflight_;
  const SimTime now = world_.sim().now();
  const SimTime latency = now - o.request_time;
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
}

ServeResult ServiceLoop::run() {
  const SimTime plan_end = gen_.plan_end();
  world_.start(plan_end + kDay);
  // Telemetry windows adopt the SLO evaluation window and p99 target so
  // every exported row lines up with a SloTracker window. Must follow
  // start(): its observer wiring resets the exporter, and begin_serve
  // re-baselines it with the serve shape.
  ODR_METRICS_TS(
      begin_serve(config_.slo.window, config_.slo.p99_latency_target));

  sim::Simulator& sim = world_.sim();
  schedule_next_arrival();
  sim.run();
  // Close every telemetry window through the drain point so the trailing
  // partial window is exported too.
  ODR_METRICS_TS(finish(sim.now()));

  result_.plan_duration = plan_end;
  result_.drained_at = sim.now();
  result_.offered_rate_tasks_per_sec =
      plan_end > 0
          ? static_cast<double>(result_.offered) / to_seconds(plan_end)
          : 0.0;
  result_.slo = slo_.report(plan_end, result_.offered);
  const core::RetryBudget& budget =
      world_.cloud().predownloaders().retry_budget();
  result_.budget_granted = budget.granted();
  result_.budget_denied = budget.denied();
  analysis::StrategyReplayResult counters;
  world_.harvest(counters);
  result_.faults_fired = counters.faults_fired;
  result_.hedge_pairs = counters.hedge_pairs;
  result_.fingerprint = fingerprint_;
  return result_;
}

}  // namespace odr::serve
