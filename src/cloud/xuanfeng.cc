#include "cloud/xuanfeng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <vector>

#include "obs/observer.h"
#include "snapshot/format.h"
#include "workload/snapshot.h"

namespace odr::cloud {
namespace {

// The versions of the cloud's five checkpoint sections. Rng, caches,
// uploads and tasks are at v1, where they started with the world's meta
// v2. The vm section, which holds every pre-download task and its source,
// is at v5: each active, queued and retrying entry names its file by one
// catalog index, checked against the catalog on load (v4 wrote a whole
// file record per entry); a server source stores only its fatal-break
// time, and a swarm its stationary means and the time of its pending
// change (a v3 task's wake was a plain 5-minute sample; v2 also carried a
// server's break clock and flags and a swarm's popularity and scale; v1 an
// external-seed count per swarm).
inline constexpr std::uint32_t kSectionVersion = 1;
inline constexpr std::uint32_t kVmSectionVersion = 5;

// Range of the residual-dynamics slowdown factor (CloudConfig::dynamics_prob
// picks which fetches it hits).
constexpr double kDynamicsSlowdownLo = 0.04;
constexpr double kDynamicsSlowdownHi = 0.45;

enum : std::uint16_t {
  kTagRng = 1,  // ..6
  kTagInflightCount = 10,
  kTagInflightFile = 11,
  kTagWaiterCount = 12,
  kTagWaiterEnqueuedAt = 13,
  kTagWaiterIsp = 14,
  kTagWaiterBandwidth = 15,
  kTagFetchCount = 20,
  kTagFetchFlow = 21,
  kTagFetchOverhead = 23,
  kTagPlanAdmitted = 50,
  kTagPlanCluster = 51,
  kTagPlanPrivileged = 52,
  kTagPlanRate = 53,
  kTagPlanLink = 54,
  kTagPlanOversubscribed = 55,
};

// Refuses a restored file index past the catalog's end: `field` names it.
void check_file(workload::FileIndex file, const workload::Catalog& catalog,
                const char* field) {
  if (file >= catalog.size()) {
    throw snapshot::SnapshotError(
        std::string("cloud: ") + field + " " + std::to_string(file) +
            " is past the catalog's " + std::to_string(catalog.size()) +
            " files",
        snapshot::SnapshotErrorKind::kCorrupt);
  }
}

void save_plan(snapshot::SnapshotWriter& w, const FetchPlan& p) {
  w.b(kTagPlanAdmitted, p.admitted);
  w.u8(kTagPlanCluster, static_cast<std::uint8_t>(p.cluster));
  w.b(kTagPlanPrivileged, p.privileged);
  w.f64(kTagPlanRate, p.rate);
  w.u32(kTagPlanLink, p.cluster_link);
  w.b(kTagPlanOversubscribed, p.oversubscribed);
}

FetchPlan load_plan(snapshot::SnapshotReader& r) {
  FetchPlan p;
  p.admitted = r.b(kTagPlanAdmitted);
  p.cluster = static_cast<net::Isp>(r.u8(kTagPlanCluster));
  p.privileged = r.b(kTagPlanPrivileged);
  p.rate = r.f64(kTagPlanRate);
  p.cluster_link = r.u32(kTagPlanLink);
  p.oversubscribed = r.b(kTagPlanOversubscribed);
  return p;
}

}  // namespace

XuanfengCloud::XuanfengCloud(sim::Simulator& sim, net::Network& net,
                             const workload::Catalog& catalog,
                             const proto::SourceParams& sources,
                             const CloudConfig& config, Rng& rng)
    : sim_(sim),
      net_(net),
      catalog_(catalog),
      config_(config),
      rng_(rng.fork()),
      content_db_(catalog.size()),
      storage_(catalog, config.storage_capacity),
      uploads_(net, config, rng_),
      predownloaders_(sim, net, catalog, config, sources, rng_,
                      [this](workload::FileIndex file,
                             const proto::DownloadResult& result) {
                        on_predownload_done(file, result);
                      }) {}

void XuanfengCloud::warm_cache(const workload::FileInfo& file) {
  storage_.insert(file.index);
}

workload::PreDownloadRecord XuanfengCloud::make_cache_hit_record(
    const workload::WorkloadRecord& request) const {
  workload::PreDownloadRecord pre;
  pre.start_time = sim_.now();
  pre.finish_time = sim_.now();
  pre.acquired_bytes = catalog_.file(request.file).size;
  pre.traffic_bytes = 0;  // dedup: no pre-download traffic on a hit
  pre.cache_hit = true;
  pre.success = true;
  return pre;
}

workload::TaskOutcome XuanfengCloud::make_outcome(
    const workload::WorkloadRecord& request,
    const workload::PreDownloadRecord& pre) const {
  workload::TaskOutcome outcome;
  outcome.task_id = request.task_id;
  outcome.user_id = request.user_id;
  outcome.file = request.file;
  outcome.pre = pre;
  outcome.weekly_popularity =
      content_db_.weekly_popularity(request.file, sim_.now());
  outcome.popularity = workload::classify_popularity(outcome.weekly_popularity);
  return outcome;
}

void XuanfengCloud::submit(const workload::WorkloadRecord& request,
                           const workload::User& user, OutcomeFn on_done) {
  content_db_.record_request(request.file, sim_.now());
  submit_impl(request, user, std::move(on_done));
}

void XuanfengCloud::submit_clone(const workload::WorkloadRecord& request,
                                 const workload::User& user,
                                 OutcomeFn on_done) {
  // No record_request: the hedge pair's primary leg already counted this
  // request, and popularity statistics must see each user request once.
  ODR_COUNT("cloud.tasks.clones");
  submit_impl(request, user, std::move(on_done));
}

void XuanfengCloud::submit_impl(const workload::WorkloadRecord& request,
                                const workload::User& user,
                                OutcomeFn on_done) {
  ODR_COUNT("cloud.tasks.submitted");
  ODR_SPAN(on_submit(request.task_id, sim_.now(), obs::SpanOrigin::kCloud));
  ODR_SPAN(on_stage(request.task_id, obs::Stage::kCacheLookup, sim_.now(),
                    sim_.now()));

  if (storage_.lookup(request.file)) {
    ODR_COUNT("cloud.tasks.cache_hits");
    ODR_SPAN(on_cache_hit(request.task_id));
    begin_fetch(request, user.isp, user.access_bandwidth,
                make_cache_hit_record(request), std::move(on_done));
    return;
  }

  await_predownload(Waiter{.request = request,
                           .isp = user.isp,
                           .access_bandwidth = user.access_bandwidth,
                           .on_done = std::move(on_done)});
}

void XuanfengCloud::await_predownload(Waiter w) {
  const workload::FileIndex file = w.request.file;
  w.enqueued_at = sim_.now();
  auto [it, first] = inflight_.try_emplace(file);
  it->second.push_back(std::move(w));
  // An identical file already being pre-downloaded serves this waiter too.
  if (first) predownloaders_.submit(file);
}

Bytes XuanfengCloud::cancel_task(workload::TaskId id) {
  // Fetch stage: the task streams from an upload cluster. Tear the flow
  // down, give its reservation back to the cluster, and report the bytes
  // it had already moved as wasted work.
  for (auto it = fetches_.begin(); it != fetches_.end(); ++it) {
    if (it->second.outcome.task_id != id) continue;
    ActiveFetch fetch = std::move(it->second);
    fetches_.erase(it);
    const net::FlowStats stats = net_.flow_stats(fetch.flow);
    net_.cancel_flow(fetch.flow);
    uploads_.release(fetch.plan);
    ODR_COUNT("cloud.fetches.cancelled");
    workload::TaskOutcome& outcome = fetch.outcome;
    outcome.fetch.finish_time = sim_.now();
    outcome.fetch.acquired_bytes = stats.bytes_done;
    outcome.fetched = false;
    outcome.aborted = true;
    if (fetch.on_done) fetch.on_done(outcome);
    return stats.bytes_done;
  }
  // Waiter stage: detach this task from the shared pre-download. The
  // inflight_ entry itself stays — other waiters (and the cache admission)
  // still want the transfer, and a cancelled clone must never un-admit a
  // file or strand its siblings.
  for (auto& [file, waiters] : inflight_) {
    for (auto wit = waiters.begin(); wit != waiters.end(); ++wit) {
      if (wit->request.task_id != id) continue;
      Waiter w = std::move(*wit);
      waiters.erase(wit);
      ODR_COUNT("cloud.waiters.cancelled");
      workload::PreDownloadRecord pre;
      pre.start_time = w.enqueued_at;
      pre.finish_time = sim_.now();
      pre.success = false;
      pre.failure_cause = proto::FailureCause::kAborted;
      if (w.pre_only) {
        w.pre_only(pre);
        return 0;
      }
      workload::TaskOutcome outcome = make_outcome(w.request, pre);
      outcome.aborted = true;
      if (w.on_done) w.on_done(outcome);
      return 0;
    }
  }
  return 0;  // already terminal (or never here): cancel is a no-op
}

void XuanfengCloud::predownload_only(const workload::WorkloadRecord& request,
                                     PreDownloadFn on_done) {
  content_db_.record_request(request.file, sim_.now());
  ODR_SPAN(on_submit(request.task_id, sim_.now(), obs::SpanOrigin::kCloud));
  ODR_SPAN(on_stage(request.task_id, obs::Stage::kCacheLookup, sim_.now(),
                    sim_.now()));

  if (storage_.lookup(request.file)) {
    ODR_SPAN(on_cache_hit(request.task_id));
    if (on_done) on_done(make_cache_hit_record(request));
    return;
  }

  await_predownload(Waiter{.request = request, .pre_only = std::move(on_done)});
}

void XuanfengCloud::fetch_only(const workload::WorkloadRecord& request,
                               const workload::User& user,
                               workload::PreDownloadRecord pre,
                               OutcomeFn on_done) {
  begin_fetch(request, user.isp, user.access_bandwidth, std::move(pre),
              std::move(on_done));
}

void XuanfengCloud::on_predownload_done(workload::FileIndex file,
                                        const proto::DownloadResult& result) {
  auto it = inflight_.find(file);
  assert(it != inflight_.end());
  std::vector<Waiter> waiters = std::move(it->second);
  inflight_.erase(it);

  if (result.success) storage_.insert(file);

  // Retry notes accumulated per file (VM backoff requeues, checksum
  // refetches) move onto every waiter's span: each attached task lived
  // through the same retried transfer.
  std::uint32_t span_file_retries = 0;
  if (auto* odr_obs = obs::current()) {
    if (auto* journal = odr_obs->journal()) {
      span_file_retries = journal->take_file_retries(file);
    }
  }

  bool first = true;
  for (Waiter& w : waiters) {
    ODR_SPAN(on_stage(w.request.task_id, obs::Stage::kVmQueue, w.enqueued_at,
                      result.started_at));
    ODR_SPAN(on_stage(w.request.task_id, obs::Stage::kVmFetch,
                      result.started_at, result.finished_at));
    if (span_file_retries > 0) {
      ODR_SPAN(on_retry(w.request.task_id, span_file_retries));
    }
    workload::PreDownloadRecord pre;
    pre.start_time = result.started_at;
    pre.finish_time = result.finished_at;
    pre.acquired_bytes = result.bytes_downloaded;
    // Only the first attached request pays the pre-download traffic; the
    // rest share the single transfer (file-level dedup in flight).
    pre.traffic_bytes = first ? result.traffic_bytes : 0;
    first = false;
    pre.cache_hit = false;
    pre.average_rate = result.average_rate;
    pre.peak_rate = result.peak_rate;
    pre.success = result.success;
    pre.failure_cause = result.cause;

    if (w.pre_only) {
      w.pre_only(pre);
      continue;
    }
    if (!result.success) {
      if (w.on_done) w.on_done(make_outcome(w.request, pre));
      continue;
    }
    begin_fetch(w.request, w.isp, w.access_bandwidth, pre,
                std::move(w.on_done));
  }
}

void XuanfengCloud::begin_fetch(const workload::WorkloadRecord& request,
                                net::Isp isp, Rate access_bandwidth,
                                workload::PreDownloadRecord pre,
                                OutcomeFn on_done) {
  // Desired rate: the user's true access bandwidth, occasionally degraded
  // by residual network dynamics (the §4.2 "unknown" bucket).
  Rate desired = std::min(access_bandwidth, kMaxFetchRate);
  if (rng_.bernoulli(config_.dynamics_prob)) {
    desired *= rng_.uniform(kDynamicsSlowdownLo, kDynamicsSlowdownHi);
  }

  workload::TaskOutcome outcome = make_outcome(request, pre);
  const FetchPlan plan = uploads_.plan_fetch(isp, desired, outcome.popularity);
  outcome.fetch.start_time = sim_.now();

  if (!plan.admitted) {
    // Rejected: the fetch never starts (observed speed 0, §4.2).
    outcome.fetch.finish_time = sim_.now();
    outcome.fetch.rejected = true;
    if (on_done) on_done(outcome);
    return;
  }
  outcome.privileged_path = plan.privileged;

  const double overhead = rng_.uniform(1.07, 1.10);  // §4.2 user-side cost

  net::Network::FlowSpec spec;
  spec.link = plan.cluster_link;
  spec.bytes = catalog_.file(request.file).size;
  spec.rate_cap = plan.rate;
  spec.on_complete = [this](net::FlowId id) { on_fetch_complete(id); };
  const net::FlowHandle flow = net_.start_flow(std::move(spec));
  fetches_.emplace(flow.id, ActiveFetch{flow, std::move(outcome), plan,
                                        overhead, std::move(on_done)});
}

void XuanfengCloud::on_fetch_complete(net::FlowId id) {
  auto it = fetches_.find(id);
  assert(it != fetches_.end());
  ActiveFetch fetch = std::move(it->second);
  fetches_.erase(it);

  uploads_.release(fetch.plan);
  ODR_COUNT("cloud.fetches.completed");
  workload::TaskOutcome& outcome = fetch.outcome;
  outcome.fetch.finish_time = sim_.now();
  ODR_TRACE_COMPLETE(kCloud, "fetch", outcome.fetch.start_time, sim_.now());
  ODR_SPAN(on_stage(outcome.task_id, obs::Stage::kUploadFetch,
                    outcome.fetch.start_time, sim_.now()));
  const Bytes size = catalog_.file(outcome.file).size;
  outcome.fetch.acquired_bytes = size;
  outcome.fetch.traffic_bytes = static_cast<Bytes>(
      std::llround(static_cast<double>(size) * fetch.overhead));
  outcome.fetch.average_rate = average_rate(
      size, outcome.fetch.finish_time - outcome.fetch.start_time);
  outcome.fetch.peak_rate = fetch.plan.rate;
  outcome.fetched = true;
  if (fetch.on_done) fetch.on_done(outcome);
}

std::vector<net::FlowId> XuanfengCloud::fetch_flow_ids() const {
  std::vector<net::FlowId> flows;
  flows.reserve(fetches_.size());
  for (const auto& [flow, fetch] : fetches_) flows.push_back(flow);
  std::sort(flows.begin(), flows.end());
  return flows;
}

void XuanfengCloud::save(snapshot::SnapshotWriter& w) const {
  using snapshot::Subsystem;
  using snapshot::section_id;
  w.begin_section(section_id(Subsystem::kRng), kSectionVersion);
  save_rng(w, kTagRng, rng_);
  w.end_section();

  w.begin_section(section_id(Subsystem::kCaches), kSectionVersion);
  content_db_.save(w);
  storage_.save(w);
  w.end_section();

  w.begin_section(section_id(Subsystem::kUploads), kSectionVersion);
  uploads_.save(w);
  w.end_section();

  w.begin_section(section_id(Subsystem::kVm), kVmSectionVersion);
  predownloaders_.save(w);
  w.end_section();

  w.begin_section(section_id(Subsystem::kTasks), kSectionVersion);
  std::vector<workload::FileIndex> files;
  files.reserve(inflight_.size());
  for (const auto& [file, waiters] : inflight_) files.push_back(file);
  std::sort(files.begin(), files.end());
  w.u64(kTagInflightCount, files.size());
  for (workload::FileIndex file : files) {
    const std::vector<Waiter>& waiters = inflight_.at(file);
    w.u32(kTagInflightFile, file);
    w.u64(kTagWaiterCount, waiters.size());
    for (const Waiter& waiter : waiters) {
      if (waiter.pre_only) {
        throw snapshot::SnapshotError(
            "cloud: predownload_only waiter pending — its caller closure "
            "cannot be checkpointed",
            snapshot::SnapshotErrorKind::kUsage);
      }
      workload::save_workload_record(w, waiter.request);
      w.u8(kTagWaiterIsp, static_cast<std::uint8_t>(waiter.isp));
      w.f64(kTagWaiterBandwidth, waiter.access_bandwidth);
      w.i64(kTagWaiterEnqueuedAt, waiter.enqueued_at);
    }
  }

  const std::vector<net::FlowId> flows = fetch_flow_ids();
  w.u64(kTagFetchCount, flows.size());
  for (net::FlowId flow : flows) {
    const ActiveFetch& fetch = fetches_.at(flow);
    w.u64(kTagFetchFlow, flow);
    workload::save_task_outcome(w, fetch.outcome);
    save_plan(w, fetch.plan);
    w.f64(kTagFetchOverhead, fetch.overhead);
  }
  w.end_section();
}

void XuanfengCloud::debug_burn_rng_draw() { (void)rng_.next_u64(); }

void XuanfengCloud::load(snapshot::SnapshotReader& r, OutcomeFn sink) {
  using snapshot::Subsystem;
  using snapshot::section_id;
  r.require_section(section_id(Subsystem::kRng), kSectionVersion);
  load_rng(r, kTagRng, rng_);
  r.end_section();

  r.require_section(section_id(Subsystem::kCaches), kSectionVersion);
  content_db_.load(r);
  storage_.load(r);
  r.end_section();

  r.require_section(section_id(Subsystem::kUploads), kSectionVersion);
  uploads_.load(r);
  r.end_section();

  r.require_section(section_id(Subsystem::kVm), kVmSectionVersion);
  predownloaders_.load(r);
  r.end_section();

  r.require_section(section_id(Subsystem::kTasks), kSectionVersion);
  inflight_.clear();
  const std::uint64_t files = r.u64(kTagInflightCount);
  for (std::uint64_t i = 0; i < files; ++i) {
    const workload::FileIndex file = r.u32(kTagInflightFile);
    check_file(file, catalog_, "in-flight file");
    std::vector<Waiter>& waiters = inflight_[file];
    const std::uint64_t count = r.u64(kTagWaiterCount);
    waiters.reserve(count);
    for (std::uint64_t j = 0; j < count; ++j) {
      Waiter waiter;
      waiter.request = workload::load_workload_record(r);
      if (waiter.request.file != file) {
        throw snapshot::SnapshotError(
            "cloud: waiter request.file " +
                std::to_string(waiter.request.file) +
                " differs from its in-flight file " + std::to_string(file),
            snapshot::SnapshotErrorKind::kCorrupt);
      }
      waiter.isp = static_cast<net::Isp>(r.u8(kTagWaiterIsp));
      waiter.access_bandwidth = r.f64(kTagWaiterBandwidth);
      waiter.enqueued_at = r.i64(kTagWaiterEnqueuedAt);
      waiter.on_done = sink;
      waiters.push_back(std::move(waiter));
    }
  }

  fetches_.clear();
  const std::uint64_t fetch_count = r.u64(kTagFetchCount);
  for (std::uint64_t i = 0; i < fetch_count; ++i) {
    const net::FlowId flow = r.u64(kTagFetchFlow);
    ActiveFetch fetch;
    fetch.outcome = workload::load_task_outcome(r);
    check_file(fetch.outcome.file, catalog_, "active fetch outcome file");
    fetch.plan = load_plan(r);
    fetch.overhead = r.f64(kTagFetchOverhead);
    fetch.on_done = sink;
    fetch.flow = net_.reattach_on_complete(
        flow, [this](net::FlowId id) { on_fetch_complete(id); });
    fetches_.emplace(flow, std::move(fetch));
  }
  r.end_section();
}

}  // namespace odr::cloud
