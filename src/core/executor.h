// Executor: carries a routing Decision out against the simulated systems.
//
// The executor is the glue between the decision layer (Redirector /
// baselines) and the substrates (XuanfengCloud, SmartAp, direct
// DownloadTasks), producing one ExecOutcome per task with everything the
// §6.2 evaluation measures: end-to-end delay, user-perceived fetch rate,
// impeded/rejected flags, and the cloud-uplink bytes the task cost.
//
// ODR sits in front of the content database (§6.1): execute() records each
// request there once, whatever route or hedge serves it. The cloud's one
// sink is on_cloud_outcome(), which finds each cloud leg's continuation in
// a table keyed by task id.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

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

  Executor(sim::Simulator& sim, net::Network& net,
           const workload::Catalog& catalog, cloud::XuanfengCloud& cloud,
           const proto::SourceParams& sources, RedirectorParams redirector,
           Rng& rng);

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
  // `ap` may be null unless the route needs one. A file past the catalog
  // throws std::out_of_range before any state is touched.
  void execute(const Decision& decision,
               const workload::WorkloadRecord& request,
               const workload::User& user, odr::ap::SmartAp* ap, DoneFn done);

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

  // The sink of the executor's cloud: hands `outcome` to the continuation
  // of its task's cloud leg, taking that entry out of the table first.
  void on_cloud_outcome(const workload::TaskOutcome& outcome);

 private:
  using CloudFn = cloud::XuanfengCloud::OutcomeFn;

  // Files `then` as the continuation of task `id`'s cloud leg, before the
  // cloud call that may report synchronously. A task has one cloud leg at
  // a time: a hedge's secondary never shares the primary's substrate.
  void await_cloud(workload::TaskId id, CloudFn then);

  // The continuation of a cloud fetch: the ExecOutcome, staged through
  // `stage_ap` over the LAN when one is given (kCloudThenSmartAp).
  CloudFn fetch_leg(const workload::WorkloadRecord& request,
                    odr::ap::SmartAp* stage_ap, DoneFn done);
  void run_cloud(const workload::WorkloadRecord& request,
                 const workload::User& user, odr::ap::SmartAp* stage_ap,
                 DoneFn done);
  std::uint64_t run_user_device(const workload::WorkloadRecord& request,
                                const workload::User& user, DoneFn done);
  std::uint64_t run_smart_ap(const workload::WorkloadRecord& request,
                             const workload::User& user, odr::ap::SmartAp* ap,
                             DoneFn done);
  void run_predownload_first(const workload::WorkloadRecord& request,
                             const workload::User& user, odr::ap::SmartAp* ap,
                             DoneFn done);

  // Hedged race: launches primary + secondary clones, settles on the first
  // success, cancels the loser via the substrate cancel fast paths.
  void run_hedged(Route primary, Route secondary, bool rerouted,
                  const workload::WorkloadRecord& request,
                  const workload::User& user, odr::ap::SmartAp* ap,
                  DoneFn done);
  // Runs the task on `route`; returns its cancel thunk (a no-op returning
  // 0 once the task finished), which a hedged race keeps for its loser.
  std::function<Bytes()> launch(Route route,
                                const workload::WorkloadRecord& request,
                                const workload::User& user,
                                odr::ap::SmartAp* ap, DoneFn done);
  // Aborts an in-flight direct download; returns the bytes it had moved.
  Bytes cancel_direct(std::uint64_t id);

  ExecOutcome from_cloud_outcome(const workload::TaskOutcome& outcome,
                                 const workload::WorkloadRecord& request) const;
  void finalize_lan_stage(ExecOutcome outcome, odr::ap::SmartAp* ap,
                          DoneFn done);
  // Feeds the outcome to the breaker of the substrate that served it.
  void record_breaker_outcome(const ExecOutcome& outcome);
  DoneFn wrap_with_breakers(DoneFn done, bool rerouted);

  sim::Simulator& sim_;
  net::Network& net_;
  const workload::Catalog& catalog_;
  cloud::XuanfengCloud& cloud_;
  proto::SourceParams sources_;
  Redirector redirector_;
  Rng rng_;

  // Direct user-device downloads owned here until completion.
  std::unordered_map<std::uint64_t,
                     std::unique_ptr<proto::DownloadTask>> direct_tasks_;
  std::uint64_t next_direct_ = 1;
  // The continuation of each task's cloud leg, by task id.
  std::unordered_map<workload::TaskId, CloudFn> cloud_legs_;

  CircuitBreaker* cloud_breaker_ = nullptr;
  CircuitBreaker* ap_breaker_ = nullptr;
  std::uint64_t reroutes_ = 0;
  HedgeCoordinator* hedges_ = nullptr;
};

}  // namespace odr::core
