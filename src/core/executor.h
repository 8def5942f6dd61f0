// Executor: carries a routing Decision out against the simulated systems.
//
// The executor is the glue between the decision layer (Redirector /
// baselines) and the substrates (XuanfengCloud, SmartAp, direct
// DownloadTasks), producing one ExecOutcome per task with everything the
// §6.2 evaluation measures: end-to-end delay, user-perceived fetch rate,
// impeded/rejected flags, and the cloud-uplink bytes the task cost.
//
// ODR sits in front of the content database (§6.1): execute() records each
// request there once, whatever route or hedge serves it.
//
// The executor answers one owner: it is built with one sink, which hears
// every task once. Each task in flight is one record in a table keyed by
// task id, filed before the first substrate call (any of which may report
// synchronously). The substrates report by task id too: the cloud to
// on_cloud_outcome(), the smart APs to on_ap_outcome(), and the direct
// downloads the executor owns through their engine callbacks. A task never
// has two legs on one substrate (a hedged clone runs on a disjoint one), so
// the id and the reporting substrate name the leg. Every leg ends in one
// finish path: it feeds the breaker, settles the hedged race, closes the
// task span and calls the sink, in that order.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "ap/smart_ap.h"
#include "cloud/xuanfeng.h"
#include "core/circuit_breaker.h"
#include "core/decision.h"
#include "core/hedge.h"
#include "core/strategy.h"
#include "net/network.h"
#include "proto/download.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/trace.h"
#include "workload/user_model.h"

namespace odr::core {

struct ExecOutcome {
  workload::TaskId task_id = 0;
  Route route = Route::kCloud;
  bool success = false;
  proto::FailureCause cause = proto::FailureCause::kNone;
  bool rejected = false;

  SimTime request_time = 0;
  SimTime ready_time = 0;      // when the user has the file locally
  SimTime pre_delay = 0;       // proxy-side pre-download time
  SimTime fetch_delay = 0;     // user-facing fetch time

  Bytes file_size = 0;
  Rate fetch_rate = 0.0;       // rate into the user premises (Fig 17)
  Rate e2e_rate = 0.0;         // size / (ready - request)
  bool impeded = false;        // real-time fetch below the 125 KBps line
  bool rerouted = false;       // a circuit breaker overrode the decision
  bool hedged = false;         // a speculative clone raced this task
  bool hedge_secondary_won = false;  // ... and the clone beat the primary

  Bytes cloud_upload_bytes = 0;  // burden this task placed on the cloud
  SimTime cloud_upload_start = 0, cloud_upload_finish = 0;

  workload::PopularityClass popularity =
      workload::PopularityClass::kUnpopular;
};

class Executor {
 public:
  // The §6.2 testbed line: fetch rates are observed behind a 20 Mbps
  // ADSL line, which caps every recorded rate at ~2.37-2.5 MBps.
  static constexpr Rate kPremisesLineRate = mbps_to_rate(20.0);
  // A fetch below the playback rate is impeded (Bottleneck 1).
  static constexpr Rate kPlaybackRate = kbps_to_rate(125.0);

  using DoneFn = std::function<void(const ExecOutcome&)>;

  // `done` hears every executed task once; an empty one discards them.
  Executor(sim::Simulator& sim, net::Network& net,
           const workload::Catalog& catalog, cloud::XuanfengCloud& cloud,
           const proto::SourceParams& sources, RedirectorParams redirector,
           Rng& rng, DoneFn done);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // The Redirector every caller decides with; the kCloudPreDownloadFirst
  // branch re-decides with it too once the file lands in the cache.
  const Redirector& redirector() const { return redirector_; }

  // Builds the DecisionInput ODR would see for this request (content-DB
  // popularity, cache state, user auxiliaries, the given AP's storage).
  DecisionInput make_input(const workload::WorkloadRecord& request,
                           const workload::User& user,
                           const odr::ap::SmartAp* ap) const;

  // Records the request in the content database, then executes `decision`;
  // `ap` may be null unless the route needs one. `user` and `ap` must
  // outlive the task, and its id must not be in flight. A file past the
  // catalog throws std::out_of_range before any state is touched.
  void execute(const Decision& decision,
               const workload::WorkloadRecord& request,
               const workload::User& user, odr::ap::SmartAp* ap);

  // Opt-in fault tolerance: when set, an open breaker reroutes requests
  // away from the unhealthy substrate (cloud <-> AP, falling back to the
  // user's own device), and every executed outcome feeds the breaker for
  // the substrate that served it. Either pointer may be null; both must
  // outlive the executor. Default (nullptr) leaves routing untouched.
  void set_substrate_breakers(CircuitBreaker* cloud_breaker,
                              CircuitBreaker* ap_breaker) {
    cloud_breaker_ = cloud_breaker;
    ap_breaker_ = ap_breaker;
  }

  std::uint64_t reroutes() const { return reroutes_; }

  // Opt-in request cloning: when set (and enabled), a Decision with
  // `hedge` launches the task on a disjoint secondary backend too, races
  // the two clones, and cancels the loser on the first success. The
  // coordinator must outlive the executor. Charges its budget per clone;
  // a denied charge (or a tripped secondary breaker) silently degrades the
  // request to the plain single-path policy.
  void set_hedging(HedgeCoordinator* hedges) { hedges_ = hedges; }

  // The disjoint backend a hedged clone of `primary` runs on.
  static Route hedge_secondary_for(Route primary, const odr::ap::SmartAp* ap);

  // The sink of the executor's cloud: the cloud leg of task
  // `outcome.task_id` reported.
  void on_cloud_outcome(const workload::TaskOutcome& outcome);
  // The sink of every smart AP the executor routes to: the AP leg of task
  // `id` reported.
  void on_ap_outcome(std::uint64_t id, const proto::DownloadResult& result);

 private:
  // One task in flight, from execute() until its last leg reports.
  struct Task {
    workload::WorkloadRecord request;
    const workload::User* user = nullptr;
    odr::ap::SmartAp* ap = nullptr;
    Route route = Route::kCloud;  // the primary route, after any reroute
    // What the cloud leg serves, when the task has one: kCloud (a plain
    // fetch), kCloudThenSmartAp (a fetch staged through `ap`) or
    // kCloudPreDownloadFirst (a pre-download, then a fresh decision).
    Route cloud_leg = Route::kCloud;
    bool rerouted = false;  // a circuit breaker overrode the decision
    // The hedged race: a clone on `secondary` races the primary.
    bool hedged = false;
    bool settled = false;
    std::uint8_t clones_done = 0;
    Route secondary = Route::kCloud;
    SimTime launched_at = 0;
    std::optional<ExecOutcome> primary_failure;
    // The user-device leg, owned here until its callback returns.
    std::unique_ptr<proto::DownloadTask> direct;
  };
  using TaskTable = std::unordered_map<workload::TaskId, Task>;

  // Starts `request`'s leg on `route`; its record `task` is filed.
  void launch(Route route, const workload::WorkloadRecord& request,
              const workload::User& user, Task& task);
  void start_direct(const workload::WorkloadRecord& request, Task& task);
  void on_direct_done(workload::TaskId id,
                      const proto::DownloadResult& result);
  // The zero-delay loser-cancel of a settled race: aborts task `id`'s leg
  // on `loser` if it is still in flight.
  void cancel_clone(workload::TaskId id, Route loser);

  // Fields every route fills alike; `route` is the leg's route.
  ExecOutcome outcome_for(const workload::WorkloadRecord& request,
                          Route route) const;
  ExecOutcome from_cloud_outcome(const workload::TaskOutcome& outcome,
                                 const workload::WorkloadRecord& request) const;
  // The last hop: the user pulls the file from `ap` over the LAN.
  void add_lan_stage(ExecOutcome& outcome, odr::ap::SmartAp* ap);
  // The breaker of the substrate `route` runs on (null when it has none).
  CircuitBreaker* breaker_for(Route route) const;
  // Feeds the outcome to the breaker of the substrate that served it.
  void record_breaker_outcome(const ExecOutcome& outcome);
  // The end of a leg; `primary` says which clone of a hedged race it is.
  void finish(TaskTable::iterator it, ExecOutcome outcome, bool primary);

  sim::Simulator& sim_;
  net::Network& net_;
  const workload::Catalog& catalog_;
  cloud::XuanfengCloud& cloud_;
  proto::SourceParams sources_;
  Redirector redirector_;
  Rng rng_;
  DoneFn done_;

  TaskTable tasks_;

  CircuitBreaker* cloud_breaker_ = nullptr;
  CircuitBreaker* ap_breaker_ = nullptr;
  std::uint64_t reroutes_ = 0;
  HedgeCoordinator* hedges_ = nullptr;
};

}  // namespace odr::core
