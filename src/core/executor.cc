#include "core/executor.h"

#include <algorithm>
#include <cassert>

#include "obs/observer.h"

namespace odr::core {

Executor::Executor(sim::Simulator& sim, net::Network& net,
                   const workload::Catalog& catalog,
                   cloud::XuanfengCloud& cloud,
                   const proto::SourceParams& sources,
                   RedirectorParams redirector, Rng& rng, DoneFn done)
    : sim_(sim),
      net_(net),
      catalog_(catalog),
      cloud_(cloud),
      sources_(sources),
      redirector_(redirector),
      rng_(rng.fork()),
      done_(std::move(done)) {}

DecisionInput Executor::make_input(const workload::WorkloadRecord& request,
                                   const workload::User& user,
                                   const odr::ap::SmartAp* ap) const {
  DecisionInput in;
  in.weekly_popularity =
      cloud_.content_db().weekly_popularity(request.file, sim_.now());
  const workload::FileInfo& file = catalog_.file(request.file);
  in.cached_in_cloud = cloud_.storage().contains(request.file);
  in.protocol = file.protocol;
  // ODR sees the user-reported bandwidth, which is the true one; for a
  // user who does not report it, the paper's peak-fetch-speed
  // approximation recovers the true value too.
  in.user_access_bandwidth = user.access_bandwidth;
  in.user_isp = user.isp;
  in.has_smart_ap = ap != nullptr;
  if (ap != nullptr) {
    in.ap_device = ap->config().device;
    in.ap_filesystem = ap->config().filesystem;
  }
  return in;
}

namespace {

bool uses_cloud(Route route) {
  return route == Route::kCloud || route == Route::kCloudThenSmartAp ||
         route == Route::kCloudPreDownloadFirst;
}

// Failures that indict the serving substrate rather than the content
// source (dead swarms and bad mirrors say nothing about our health).
bool is_substrate_failure(proto::FailureCause cause) {
  return proto::is_infrastructure_cause(cause) ||
         cause == proto::FailureCause::kRejected ||
         cause == proto::FailureCause::kSystemBug;
}

obs::SpanOrigin origin_for(Route route) {
  switch (route) {
    case Route::kSmartAp: return obs::SpanOrigin::kAp;
    case Route::kUserDevice: return obs::SpanOrigin::kDirect;
    case Route::kCloud:
    case Route::kCloudThenSmartAp:
    case Route::kCloudPreDownloadFirst: return obs::SpanOrigin::kCloud;
  }
  return obs::SpanOrigin::kCloud;
}

// Terminal span facts from an executor outcome. The cloud layer notes the
// cache verdict itself (on_cache_hit), so `cache_hit` stays false here.
void finish_task_span(obs::TaskJournal& journal, const ExecOutcome& o,
                      SimTime now) {
  obs::SpanTerminal term;
  term.outcome = o.success    ? obs::SpanOutcome::kSuccess
                 : o.rejected ? obs::SpanOutcome::kRejected
                              : obs::SpanOutcome::kFailed;
  term.cause = proto::failure_cause_name(o.cause);
  term.popularity = workload::popularity_class_name(o.popularity);
  // On cloud routes a non-rejected failure is by construction a failed
  // pre-download (admitted fetches run to completion).
  term.pre_success = o.success || o.rejected;
  term.fetch_kbps = rate_to_kbps(o.fetch_rate);
  term.e2e_kbps = rate_to_kbps(o.e2e_rate);
  journal.on_finish(o.task_id, std::max(now, o.ready_time), term);
}

}  // namespace

CircuitBreaker* Executor::breaker_for(Route route) const {
  if (uses_cloud(route)) return cloud_breaker_;
  return route == Route::kSmartAp ? ap_breaker_ : nullptr;
}

void Executor::record_breaker_outcome(const ExecOutcome& outcome) {
  CircuitBreaker* breaker = breaker_for(outcome.route);
  if (breaker == nullptr) return;
  if (outcome.success) {
    breaker->record_success();
  } else if (is_substrate_failure(outcome.cause)) {
    breaker->record_failure();
  } else {
    // Source-model failure: no verdict on the substrate, but the request
    // is over — free its half-open probe slot if it held one.
    breaker->release_probe();
  }
}

void Executor::execute(const Decision& decision,
                       const workload::WorkloadRecord& request,
                       const workload::User& user, odr::ap::SmartAp* ap) {
  cloud_.content_db().record_request(request.file, sim_.now());
  Route route = decision.route;
  bool rerouted = false;
  if (cloud_breaker_ != nullptr && uses_cloud(route) &&
      !cloud_breaker_->allow()) {
    // Cloud substrate tripped: stage on the AP if there is one, otherwise
    // fall back to the user's own device.
    route = ap != nullptr ? Route::kSmartAp : Route::kUserDevice;
    rerouted = true;
  }
  if (ap_breaker_ != nullptr && route == Route::kSmartAp &&
      !ap_breaker_->allow()) {
    // AP substrate tripped too (or first): prefer the cloud if its breaker
    // still admits traffic, else download directly.
    const bool cloud_ok =
        !rerouted && (cloud_breaker_ == nullptr || cloud_breaker_->allow());
    route = cloud_ok ? Route::kCloud : Route::kUserDevice;
    rerouted = true;
  }
  bool hedged = false;
  Route secondary = route;
  if (decision.hedge && hedges_ != nullptr) {
    secondary = hedge_secondary_for(route, ap);
    CircuitBreaker* sec_breaker = breaker_for(secondary);
    // Budget first, breaker last: allow() consumes a half-open probe
    // slot, so it must only be asked when the clone will actually launch
    // (a leaked slot would wedge the breaker in half-open).
    if (hedges_->try_charge_clone(request.user_id, sim_.now()) &&
        (sec_breaker == nullptr || sec_breaker->allow())) {
      // A reroute means a breaker refused the request, and the secondary
      // is then always the substrate that refused: it refuses again at
      // this instant, so a rerouted request never hedges.
      assert(!rerouted);
      hedged = true;
      hedges_->note_pair_launched();
      ODR_COUNT("task.hedge.pairs");
      ODR_TRACE_INSTANT(kCore, "executor.hedge.launch");
    } else {
      // Graceful degradation: out of budget, or the secondary substrate is
      // tripped — fall through to the plain single-path policy.
      ODR_COUNT("task.hedge.degraded");
    }
  }
  // One task span regardless of clone count, attributed to the primary's
  // origin; finish() closes it with the settled outcome.
  if (auto* odr_obs = obs::current()) {
    if (auto* journal = odr_obs->journal()) {
      journal->on_submit(request.task_id, sim_.now(), origin_for(route));
      if (rerouted) journal->on_reroute(request.task_id);
    }
  }
  if (rerouted) {
    ++reroutes_;
    ODR_COUNT("core.executor.reroutes");
    ODR_TRACE_INSTANT(kCore, "executor.reroute");
  }

  auto [it, fresh] = tasks_.try_emplace(request.task_id);
  assert(fresh);
  Task& task = it->second;
  task.request = request;
  task.user = &user;
  task.ap = ap;
  task.route = route;
  // A hedge's secondary on the cloud is always a plain fetch.
  task.cloud_leg = uses_cloud(route) ? route : Route::kCloud;
  task.rerouted = rerouted;
  task.hedged = hedged;
  task.secondary = secondary;
  task.launched_at = sim_.now();

  launch(route, request, user, task);
  if (!hedged) return;
  // A transfer takes time, so no clone succeeds inside its own launch: the
  // race is open, and the record filed, when the secondary launches.
  assert(!task.settled);
  // The secondary is one of the three plain backends, never the primary's.
  if (secondary == Route::kCloud) ODR_COUNT("cloud.tasks.clones");
  launch(secondary, request, user, task);
}

void Executor::launch(Route route, const workload::WorkloadRecord& request,
                      const workload::User& user, Task& task) {
  switch (route) {
    case Route::kUserDevice:
      start_direct(request, task);
      return;
    case Route::kSmartAp:
      assert(task.ap != nullptr);
      // Testbed: the AP's own line is the cap.
      task.ap->predownload(request.task_id, catalog_.file(request.file),
                           net::kUnlimitedRate);
      return;
    case Route::kCloudThenSmartAp:
      // The AP (on the household line) fetches from the cloud in
      // background; the user then pulls from the AP over the LAN.
      assert(task.ap != nullptr);
      [[fallthrough]];
    case Route::kCloud:
      cloud_.submit(request, user);
      return;
    case Route::kCloudPreDownloadFirst:
      // The pre-download leg reports only the request's ids and its record.
      cloud_.predownload_only(request);
      return;
  }
}

ExecOutcome Executor::outcome_for(const workload::WorkloadRecord& request,
                                  Route route) const {
  ExecOutcome e;
  e.task_id = request.task_id;
  e.route = route;
  e.request_time = request.request_time;
  e.file_size = catalog_.file(request.file).size;
  return e;
}

ExecOutcome Executor::from_cloud_outcome(
    const workload::TaskOutcome& outcome,
    const workload::WorkloadRecord& request) const {
  ExecOutcome e = outcome_for(request, Route::kCloud);
  e.popularity = outcome.popularity;
  e.pre_delay = outcome.pre.finish_time - outcome.pre.start_time;
  if (outcome.aborted) {
    // Loser-cancel tore the clone down mid-flight (waiter or fetch stage).
    e.success = false;
    e.cause = proto::FailureCause::kAborted;
    e.ready_time = outcome.pre.success ? outcome.fetch.finish_time
                                       : outcome.pre.finish_time;
    return e;
  }
  if (!outcome.pre.success) {
    e.success = false;
    e.cause = outcome.pre.failure_cause;
    e.ready_time = outcome.pre.finish_time;
    return e;
  }
  if (outcome.fetch.rejected) {
    e.success = false;
    e.rejected = true;
    e.cause = proto::FailureCause::kRejected;
    e.ready_time = outcome.fetch.finish_time;
    e.impeded = true;  // observed fetch speed 0
    return e;
  }
  e.success = true;
  e.fetch_delay = outcome.fetch.finish_time - outcome.fetch.start_time;
  e.fetch_rate = outcome.fetch.average_rate;
  e.ready_time = outcome.fetch.finish_time;
  e.impeded = e.fetch_rate < kPlaybackRate;
  e.cloud_upload_bytes = outcome.fetch.acquired_bytes;
  e.cloud_upload_start = outcome.fetch.start_time;
  e.cloud_upload_finish = outcome.fetch.finish_time;
  const SimTime total = e.ready_time - e.request_time;
  e.e2e_rate = average_rate(e.file_size, total);
  return e;
}

void Executor::on_cloud_outcome(const workload::TaskOutcome& outcome) {
  const auto it = tasks_.find(outcome.task_id);
  assert(it != tasks_.end());
  Task& task = it->second;
  const bool primary = uses_cloud(task.route);
  if (task.cloud_leg == Route::kCloudPreDownloadFirst) {
    const workload::PreDownloadRecord& pre = outcome.pre;
    if (!pre.success) {
      ExecOutcome e = outcome_for(task.request, Route::kCloudPreDownloadFirst);
      e.popularity =
          cloud_.content_db().classify(task.request.file, sim_.now());
      e.success = false;
      e.cause = pre.failure_cause;
      e.ready_time = pre.finish_time;
      e.pre_delay = pre.finish_time - pre.start_time;
      finish(it, std::move(e), primary);
      return;
    }
    // Ask ODR again, now with the file cached (Fig 15, Case 2).
    DecisionInput in = make_input(task.request, *task.user, task.ap);
    in.cached_in_cloud = true;
    const bool bottleneck1 =
        redirector_.cloud_path_bottleneck(in) && task.ap != nullptr;
    task.cloud_leg = bottleneck1 ? Route::kCloudThenSmartAp : Route::kCloud;
    // The fetch may report inside fetch_only() and end the record.
    const workload::WorkloadRecord request = task.request;
    cloud_.fetch_only(request, *task.user, pre);
    return;
  }
  ExecOutcome e = from_cloud_outcome(outcome, task.request);
  if (task.cloud_leg == Route::kCloudThenSmartAp) {
    e.route = Route::kCloudThenSmartAp;
    if (e.success) {
      // The slow cloud->AP hop happens in background; the user streams
      // from the AP, so the task is not impeded even when that hop is
      // below playback rate (this is the Bottleneck-1 remedy).
      e.impeded = false;
      add_lan_stage(e, task.ap);
    }
  }
  finish(it, std::move(e), primary);
}

void Executor::start_direct(const workload::WorkloadRecord& request,
                            Task& task) {
  // The user is not consulted: §6.2 testbed downloads run behind the
  // testbed line.
  const workload::FileInfo& file = catalog_.file(request.file);
  auto source = proto::make_source(file.protocol,
                                   file.expected_weekly_requests, sources_,
                                   rng_);
  proto::DownloadTask::Config cfg;
  // §6.2 testbed semantics: replayed downloads run behind the testbed's
  // 20 Mbps line (the recorded per-user bandwidth restriction is §5.1's
  // AP-benchmark methodology, not ODR's).
  cfg.rate_ceiling = kPremisesLineRate * kTransportEfficiency;
  task.direct = std::make_unique<proto::DownloadTask>(
      sim_, net_, std::move(source), file.size, cfg,
      [this, id = request.task_id](const proto::DownloadResult& result) {
        on_direct_done(id, result);
      });
  task.direct->start(rng_);
}

void Executor::on_direct_done(workload::TaskId id,
                              const proto::DownloadResult& result) {
  const auto it = tasks_.find(id);
  assert(it != tasks_.end());
  Task& task = it->second;
  // We are inside the task's own callback: it dies when this returns.
  const std::unique_ptr<proto::DownloadTask> finished = std::move(task.direct);

  ODR_SPAN(on_stage(id, obs::Stage::kDirectFetch, result.started_at,
                    result.finished_at));
  ExecOutcome e = outcome_for(task.request, Route::kUserDevice);
  e.popularity = cloud_.content_db().classify(task.request.file, sim_.now());
  e.success = result.success;
  e.cause = result.cause;
  e.ready_time = result.finished_at;
  // Downloading on the user's own device IS the fetch; there is no
  // separate pre-download stage.
  e.fetch_delay = result.duration();
  e.fetch_rate = result.average_rate;
  e.impeded = e.success && e.fetch_rate < kPlaybackRate;
  e.e2e_rate = e.success
                   ? average_rate(e.file_size, e.ready_time - e.request_time)
                   : 0.0;
  finish(it, std::move(e), task.route == Route::kUserDevice);
}

void Executor::on_ap_outcome(std::uint64_t id,
                             const proto::DownloadResult& result) {
  const auto it = tasks_.find(id);
  assert(it != tasks_.end());
  Task& task = it->second;
  ODR_SPAN(on_stage(id, obs::Stage::kApFetch, result.started_at,
                    result.finished_at));
  ExecOutcome e = outcome_for(task.request, Route::kSmartAp);
  e.popularity = cloud_.content_db().classify(task.request.file, sim_.now());
  e.success = result.success;
  e.cause = result.cause;
  e.ready_time = result.finished_at;
  e.pre_delay = result.duration();
  if (e.success) {
    // The recorded fetch speed is the bottleneck hop into the user's
    // premises — the AP's pre-download rate over the access line (the LAN
    // hop is never the constraint, §5.2). This matches how Fig 17 observes
    // AP-staged transfers behind the 20 Mbps testbed line.
    e.fetch_rate = result.average_rate;
    e.fetch_delay = result.duration();
    e.impeded = false;  // view-as-download from the AP is local
    add_lan_stage(e, task.ap);
  }
  finish(it, std::move(e), task.route == Route::kSmartAp);
}

void Executor::add_lan_stage(ExecOutcome& outcome, odr::ap::SmartAp* ap) {
  // The user pulls the file from the AP over the LAN (8-12 MBps); never
  // impeded, and fast enough to stream immediately.
  const SimTime lan = ap->lan_fetch_duration(outcome.file_size, rng_);
  ODR_SPAN(on_stage(outcome.task_id, obs::Stage::kLanFetch,
                    outcome.ready_time, outcome.ready_time + lan));
  outcome.ready_time += lan;
  outcome.e2e_rate =
      average_rate(outcome.file_size, outcome.ready_time - outcome.request_time);
}

void Executor::finish(TaskTable::iterator it, ExecOutcome outcome,
                      bool primary) {
  Task& task = it->second;
  outcome.rerouted = task.rerouted;
  // A hedged clone feeds the breaker of its own substrate (outcome.route
  // is the clone's route): the pair must not double-feed the primary's
  // breaker, and a cancelled loser (kAborted is not a substrate failure)
  // merely releases the probe slot it may hold.
  record_breaker_outcome(outcome);
  if (task.hedged) {
    ++task.clones_done;
    if (task.settled) {
      // Post-settle arrival: the cancelled loser, or a natural completion
      // that lost the race to the deferred cancel.
      if (outcome.cause == proto::FailureCause::kAborted) {
        hedges_->note_cancelled_clone();
        ODR_COUNT("task.hedge.cancelled_clones");
      } else if (outcome.success) {
        // The whole transfer finished only to be thrown away.
        hedges_->note_wasted_bytes(outcome.file_size);
        ODR_COUNT_N("task.hedge.wasted_bytes", outcome.file_size);
      }
      tasks_.erase(it);
      return;
    }
    if (outcome.success) {
      task.settled = true;
      hedges_->settle(primary ? HedgeCoordinator::Winner::kPrimary
                              : HedgeCoordinator::Winner::kSecondary);
      ODR_COUNT(primary ? "task.hedge.primary_wins"
                        : "task.hedge.secondary_wins");
      ODR_SPAN(on_stage(outcome.task_id, obs::Stage::kHedge, task.launched_at,
                        sim_.now()));
      if (task.clones_done < 2) {
        // Loser-cancel, deferred one event: the loser's abort reports
        // synchronously and we are already inside the winner's report.
        sim_.schedule_after(0, [this, id = outcome.task_id,
                                loser = primary ? task.secondary : task.route] {
          cancel_clone(id, loser);
        });
      }
      outcome.hedged = true;
      outcome.hedge_secondary_won = !primary;
    } else {
      // A failed clone waits for its sibling: the race is lost only when
      // both legs fail, and then the caller sees the primary's failure
      // (the clone was speculative).
      if (primary) task.primary_failure = outcome;
      if (task.clones_done < 2) return;
      task.settled = true;
      hedges_->settle(HedgeCoordinator::Winner::kNone);
      ODR_COUNT("task.hedge.both_failed");
      outcome = task.primary_failure.value_or(outcome);
      outcome.hedged = true;
    }
  }
  // The record lives until its last leg reports: a settled race keeps it
  // for the loser.
  if (!task.hedged || task.clones_done == 2) tasks_.erase(it);
  // Re-resolve the ambient journal: the observer may be swapped (or gone)
  // since the task was submitted.
  if (auto* odr_obs = obs::current()) {
    if (auto* journal = odr_obs->journal()) {
      finish_task_span(*journal, outcome, sim_.now());
    }
  }
  if (done_) done_(outcome);
}

void Executor::cancel_clone(workload::TaskId id, Route loser) {
  const auto it = tasks_.find(id);
  if (it == tasks_.end()) return;  // the loser finished first: no-op
  Task& task = it->second;
  // Each cancel reports the loser's kAborted synchronously, which ends the
  // record; what it returns is the work the loser had done.
  Bytes wasted = 0;
  switch (loser) {
    case Route::kUserDevice: {
      proto::DownloadTask* direct = task.direct.get();
      assert(direct != nullptr);
      wasted = direct->bytes_done();
      direct->abort();
      break;
    }
    case Route::kSmartAp:
      wasted = task.ap->cancel(id);
      break;
    case Route::kCloud:
    case Route::kCloudThenSmartAp:
    case Route::kCloudPreDownloadFirst:
      // A no-op returning 0 when the cloud no longer holds the task as a
      // waiter or a fetch.
      wasted = cloud_.cancel_task(id);
      break;
  }
  if (wasted > 0) {
    hedges_->note_wasted_bytes(wasted);
    ODR_COUNT_N("task.hedge.wasted_bytes", wasted);
  }
}

Route Executor::hedge_secondary_for(Route primary, const odr::ap::SmartAp* ap) {
  // The clone must run on a backend disjoint from the primary's, so one
  // substrate-wide incident cannot take out both legs of the pair.
  if (uses_cloud(primary)) {
    return ap != nullptr ? Route::kSmartAp : Route::kUserDevice;
  }
  if (primary == Route::kSmartAp) return Route::kCloud;
  // kUserDevice primary: stage on the AP when there is one, else the cloud.
  return ap != nullptr ? Route::kSmartAp : Route::kCloud;
}

}  // namespace odr::core
