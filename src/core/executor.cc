#include "core/executor.h"

#include <algorithm>
#include <cassert>

#include "obs/observer.h"

namespace odr::core {

Executor::Executor(sim::Simulator& sim, net::Network& net,
                   const workload::Catalog& catalog,
                   cloud::XuanfengCloud& cloud,
                   const proto::SourceParams& sources,
                   RedirectorParams redirector, Rng& rng)
    : sim_(sim),
      net_(net),
      catalog_(catalog),
      cloud_(cloud),
      sources_(sources),
      redirector_(redirector),
      rng_(rng.fork()) {}

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

void Executor::record_breaker_outcome(const ExecOutcome& outcome) {
  CircuitBreaker* breaker = uses_cloud(outcome.route) ? cloud_breaker_
                            : outcome.route == Route::kSmartAp ? ap_breaker_
                                                               : nullptr;
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

Executor::DoneFn Executor::wrap_with_breakers(DoneFn done, bool rerouted) {
  return [this, rerouted, done = std::move(done)](const ExecOutcome& o) {
    ExecOutcome patched = o;
    patched.rerouted = rerouted;
    record_breaker_outcome(patched);
    if (done) done(patched);
  };
}

void Executor::execute(const Decision& decision,
                       const workload::WorkloadRecord& request,
                       const workload::User& user, odr::ap::SmartAp* ap,
                       DoneFn done) {
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
  if (decision.hedge && hedges_ != nullptr) {
    const Route secondary = hedge_secondary_for(route, ap);
    CircuitBreaker* sec_breaker = uses_cloud(secondary) ? cloud_breaker_
                                  : secondary == Route::kSmartAp
                                      ? ap_breaker_
                                      : nullptr;
    // Budget first, breaker last: allow() consumes a half-open probe
    // slot, so it must only be asked when the clone will actually launch
    // (a leaked slot would wedge the breaker in half-open).
    if (hedges_->try_charge_clone(request.user_id, sim_.now()) &&
        (sec_breaker == nullptr || sec_breaker->allow())) {
      run_hedged(route, secondary, rerouted, request, user, ap,
                 std::move(done));
      return;
    }
    // Graceful degradation: out of budget, or the secondary substrate is
    // tripped — fall through to the plain single-path policy.
    ODR_COUNT("task.hedge.degraded");
  }
  // Span accounting wraps INSIDE the breaker wrapper, so it sees the
  // final (reroute-patched) outcome and fires before the caller's sink.
  if (auto* odr_obs = obs::current()) {
    if (auto* journal = odr_obs->journal()) {
      journal->on_submit(request.task_id, sim_.now(), origin_for(route));
      if (rerouted) journal->on_reroute(request.task_id);
      // Re-resolve the ambient journal at completion time: the observer
      // may be swapped (or gone) before a long task finishes.
      done = [this, done = std::move(done)](const ExecOutcome& o) {
        if (auto* fin_obs = obs::current()) {
          if (auto* fin_journal = fin_obs->journal()) {
            finish_task_span(*fin_journal, o, sim_.now());
          }
        }
        if (done) done(o);
      };
    }
  }
  if (cloud_breaker_ != nullptr || ap_breaker_ != nullptr) {
    done = wrap_with_breakers(std::move(done), rerouted);
    if (rerouted) {
      ++reroutes_;
      ODR_COUNT("core.executor.reroutes");
      ODR_TRACE_INSTANT(kCore, "executor.reroute");
    }
  }

  launch(route, request, user, ap, std::move(done));
}

ExecOutcome Executor::from_cloud_outcome(
    const workload::TaskOutcome& outcome,
    const workload::WorkloadRecord& request) const {
  ExecOutcome e;
  e.task_id = request.task_id;
  e.route = Route::kCloud;
  e.request_time = request.request_time;
  e.file_size = catalog_.file(request.file).size;
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
  auto leg = cloud_legs_.extract(outcome.task_id);
  assert(!leg.empty());
  leg.mapped()(outcome);
}

void Executor::await_cloud(workload::TaskId id, CloudFn then) {
  [[maybe_unused]] const bool fresh =
      cloud_legs_.try_emplace(id, std::move(then)).second;
  assert(fresh);
}

Executor::CloudFn Executor::fetch_leg(const workload::WorkloadRecord& request,
                                      odr::ap::SmartAp* stage_ap,
                                      DoneFn done) {
  return [this, request, stage_ap, done = std::move(done)](
             const workload::TaskOutcome& outcome) {
    ExecOutcome e = from_cloud_outcome(outcome, request);
    if (stage_ap != nullptr) {
      e.route = Route::kCloudThenSmartAp;
      if (e.success) {
        // The slow cloud->AP hop happens in background; the user streams
        // from the AP, so the task is not impeded even when that hop is
        // below playback rate (this is the Bottleneck-1 remedy).
        e.impeded = false;
        finalize_lan_stage(std::move(e), stage_ap, done);
        return;
      }
    }
    if (done) done(e);
  };
}

void Executor::run_cloud(const workload::WorkloadRecord& request,
                         const workload::User& user, odr::ap::SmartAp* stage_ap,
                         DoneFn done) {
  await_cloud(request.task_id, fetch_leg(request, stage_ap, std::move(done)));
  cloud_.submit(request, user);
}

std::uint64_t Executor::run_user_device(const workload::WorkloadRecord& request,
                                        const workload::User& /*user*/,
                                        DoneFn done) {
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

  const std::uint64_t id = next_direct_++;
  auto task = std::make_unique<proto::DownloadTask>(
      sim_, net_, std::move(source), file.size, cfg,
      [this, id, request, done = std::move(done)](
          const proto::DownloadResult& result) {
        // We are inside the task's own callback: it dies when this
        // returns.
        auto it = direct_tasks_.find(id);
        assert(it != direct_tasks_.end());
        const std::unique_ptr<proto::DownloadTask> finished =
            std::move(it->second);
        direct_tasks_.erase(it);

        ODR_SPAN(on_stage(request.task_id, obs::Stage::kDirectFetch,
                          result.started_at, result.finished_at));
        ExecOutcome e;
        e.task_id = request.task_id;
        e.route = Route::kUserDevice;
        e.request_time = request.request_time;
        e.file_size = catalog_.file(request.file).size;
        e.popularity = cloud_.content_db().classify(request.file, sim_.now());
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
        if (done) done(e);
      });
  proto::DownloadTask* raw = task.get();
  direct_tasks_.emplace(id, std::move(task));
  raw->start(rng_);
  return id;
}

Bytes Executor::cancel_direct(std::uint64_t id) {
  auto it = direct_tasks_.find(id);
  if (it == direct_tasks_.end()) return 0;  // already finished: no-op
  proto::DownloadTask* task = it->second.get();
  const Bytes moved = task->bytes_done();
  // abort() reports kAborted through the task's callback synchronously;
  // that callback erases the direct_tasks_ entry and destroys the task.
  task->abort();
  return moved;
}

void Executor::finalize_lan_stage(ExecOutcome outcome, odr::ap::SmartAp* ap,
                                  DoneFn done) {
  // The last hop: user pulls the file from the AP over the LAN (8-12
  // MBps); never impeded, and fast enough to stream immediately.
  const SimTime lan = ap->lan_fetch_duration(outcome.file_size, rng_);
  ODR_SPAN(on_stage(outcome.task_id, obs::Stage::kLanFetch,
                    outcome.ready_time, outcome.ready_time + lan));
  outcome.ready_time += lan;
  outcome.e2e_rate =
      average_rate(outcome.file_size, outcome.ready_time - outcome.request_time);
  if (done) done(outcome);
}

std::uint64_t Executor::run_smart_ap(const workload::WorkloadRecord& request,
                                     const workload::User& /*user*/,
                                     odr::ap::SmartAp* ap, DoneFn done) {
  const workload::FileInfo& file = catalog_.file(request.file);
  return ap->predownload(
      file, net::kUnlimitedRate,  // testbed: the AP's own line is the cap
      [this, request, ap, done = std::move(done)](
          const proto::DownloadResult& result) {
        ODR_SPAN(on_stage(request.task_id, obs::Stage::kApFetch,
                          result.started_at, result.finished_at));
        ExecOutcome e;
        e.task_id = request.task_id;
        e.route = Route::kSmartAp;
        e.request_time = request.request_time;
        e.file_size = catalog_.file(request.file).size;
        e.popularity = cloud_.content_db().classify(request.file, sim_.now());
        e.success = result.success;
        e.cause = result.cause;
        e.ready_time = result.finished_at;
        e.pre_delay = result.duration();
        if (!e.success) {
          if (done) done(e);
          return;
        }
        // The recorded fetch speed is the bottleneck hop into the user's
        // premises — the AP's pre-download rate over the access line (the
        // LAN hop is never the constraint, §5.2). This matches how Fig 17
        // observes AP-staged transfers behind the 20 Mbps testbed line.
        e.fetch_rate = result.average_rate;
        e.fetch_delay = result.duration();
        e.impeded = false;  // view-as-download from the AP is local
        finalize_lan_stage(std::move(e), ap, done);
      });
}

void Executor::run_predownload_first(const workload::WorkloadRecord& request,
                                     const workload::User& user,
                                     odr::ap::SmartAp* ap, DoneFn done) {
  // The pre-download leg reports only the request's ids and its record.
  await_cloud(
      request.task_id,
      [this, request, user, ap, done = std::move(done)](
          const workload::TaskOutcome& pre_outcome) {
        const workload::PreDownloadRecord& pre = pre_outcome.pre;
        if (!pre.success) {
          ExecOutcome e;
          e.task_id = request.task_id;
          e.route = Route::kCloudPreDownloadFirst;
          e.request_time = request.request_time;
          e.file_size = catalog_.file(request.file).size;
          e.popularity =
              cloud_.content_db().classify(request.file, sim_.now());
          e.success = false;
          e.cause = pre.failure_cause;
          e.ready_time = pre.finish_time;
          e.pre_delay = pre.finish_time - pre.start_time;
          if (done) done(e);
          return;
        }
        // Ask ODR again, now with the file cached (Fig 15, Case 2).
        DecisionInput in = make_input(request, user, ap);
        in.cached_in_cloud = true;
        const bool bottleneck1 =
            redirector_.cloud_path_bottleneck(in) && ap != nullptr;
        await_cloud(request.task_id,
                    fetch_leg(request, bottleneck1 ? ap : nullptr, done));
        cloud_.fetch_only(request, user, pre);
      });
  cloud_.predownload_only(request);
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

std::function<Bytes()> Executor::launch(Route route,
                                        const workload::WorkloadRecord& request,
                                        const workload::User& user,
                                        odr::ap::SmartAp* ap, DoneFn done) {
  switch (route) {
    case Route::kUserDevice: {
      const std::uint64_t id = run_user_device(request, user, std::move(done));
      return [this, id] { return cancel_direct(id); };
    }
    case Route::kSmartAp: {
      assert(ap != nullptr);
      const std::uint64_t id = run_smart_ap(request, user, ap, std::move(done));
      return [ap, id] { return ap->cancel(id); };
    }
    case Route::kCloud:
      run_cloud(request, user, nullptr, std::move(done));
      break;
    case Route::kCloudThenSmartAp:
      // The AP (on the household line) fetches from the cloud in
      // background; the user then pulls from the AP over the LAN.
      assert(ap != nullptr);
      run_cloud(request, user, ap, std::move(done));
      break;
    case Route::kCloudPreDownloadFirst:
      run_predownload_first(request, user, ap, std::move(done));
      break;
  }
  // A cloud route stays cancellable while its cloud leg runs; once a LAN
  // hop begins the thunk finds nothing in flight and a natural completion
  // is counted as wasted work by the race instead.
  return [this, id = request.task_id] { return cloud_.cancel_task(id); };
}

namespace {

// Shared state of one in-flight hedged race: both clones' callbacks hold
// it, and it dies with the later of them. The HedgeCoordinator only counts
// outcomes across races.
struct HedgeRace {
  SimTime launched_at = 0;
  bool rerouted = false;
  Executor::DoneFn done;
  std::function<Bytes()> cancel_primary;
  std::function<Bytes()> cancel_secondary;
  int completed = 0;
  bool settled = false;
  std::optional<ExecOutcome> primary_failure;
};

}  // namespace

void Executor::run_hedged(Route primary, Route secondary, bool rerouted,
                          const workload::WorkloadRecord& request,
                          const workload::User& user, odr::ap::SmartAp* ap,
                          DoneFn done) {
  hedges_->note_pair_launched();
  ODR_COUNT("task.hedge.pairs");
  ODR_TRACE_INSTANT(kCore, "executor.hedge.launch");

  // One task span regardless of clone count, attributed to the primary's
  // origin; the finisher only ever sees the settled outcome.
  if (auto* odr_obs = obs::current()) {
    if (auto* journal = odr_obs->journal()) {
      journal->on_submit(request.task_id, sim_.now(), origin_for(primary));
      if (rerouted) journal->on_reroute(request.task_id);
      done = [this, done = std::move(done)](const ExecOutcome& o) {
        if (auto* fin_obs = obs::current()) {
          if (auto* fin_journal = fin_obs->journal()) {
            finish_task_span(*fin_journal, o, sim_.now());
          }
        }
        if (done) done(o);
      };
    }
  }

  auto race = std::make_shared<HedgeRace>();
  race->launched_at = sim_.now();
  race->rerouted = rerouted;
  race->done = std::move(done);

  auto handle = [this, race, request](bool is_primary, const ExecOutcome& o) {
    ++race->completed;
    // Each clone feeds the breaker of its own substrate (o.route is the
    // clone's route): the pair must not double-feed the primary's breaker,
    // and a cancelled loser (kAborted is not a substrate failure) merely
    // releases the probe slot it may hold.
    record_breaker_outcome(o);
    if (race->settled) {
      // Post-settle arrival: the cancelled loser, or a natural completion
      // that lost the race to the deferred cancel.
      if (o.cause == proto::FailureCause::kAborted) {
        hedges_->note_cancelled_clone();
        ODR_COUNT("task.hedge.cancelled_clones");
      } else if (o.success) {
        // The whole transfer finished only to be thrown away.
        hedges_->note_wasted_bytes(o.file_size);
        ODR_COUNT_N("task.hedge.wasted_bytes", o.file_size);
      }
    } else if (o.success) {
      race->settled = true;
      hedges_->settle(is_primary ? HedgeCoordinator::Winner::kPrimary
                                 : HedgeCoordinator::Winner::kSecondary);
      ODR_COUNT(is_primary ? "task.hedge.primary_wins"
                           : "task.hedge.secondary_wins");
      ODR_SPAN(on_stage(request.task_id, obs::Stage::kHedge,
                        race->launched_at, sim_.now()));
      if (race->completed < 2) {
        // Loser-cancel, deferred one event: the loser's abort fires its
        // callback synchronously and we are already inside the winner's.
        auto cancel = is_primary ? std::move(race->cancel_secondary)
                                 : std::move(race->cancel_primary);
        sim_.schedule_after(0, [this, cancel = std::move(cancel)] {
          if (!cancel) return;
          const Bytes wasted = cancel();
          if (wasted > 0) {
            hedges_->note_wasted_bytes(wasted);
            ODR_COUNT_N("task.hedge.wasted_bytes", wasted);
          }
        });
      }
      ExecOutcome patched = o;
      patched.rerouted = race->rerouted;
      patched.hedged = true;
      patched.hedge_secondary_won = !is_primary;
      if (race->done) race->done(patched);
    } else {
      // A failed clone waits for its sibling: the race is lost only when
      // both legs fail, and then the caller sees the primary's failure
      // (the clone was speculative).
      if (is_primary) race->primary_failure = o;
      if (race->completed == 2) {
        race->settled = true;
        hedges_->settle(HedgeCoordinator::Winner::kNone);
        ODR_COUNT("task.hedge.both_failed");
        ExecOutcome patched = race->primary_failure.value_or(o);
        patched.rerouted = race->rerouted;
        patched.hedged = true;
        if (race->done) race->done(patched);
      }
    }
  };

  race->cancel_primary =
      launch(primary, request, user, ap,
             [handle](const ExecOutcome& o) { handle(true, o); });
  // The secondary is one of the three plain backends, never the primary's.
  if (secondary == Route::kCloud) ODR_COUNT("cloud.tasks.clones");
  race->cancel_secondary =
      launch(secondary, request, user, ap,
             [handle](const ExecOutcome& o) { handle(false, o); });
}

}  // namespace odr::core
