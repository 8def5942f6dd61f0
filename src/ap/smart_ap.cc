#include "ap/smart_ap.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "obs/observer.h"
#include "snapshot/format.h"
#include "workload/snapshot.h"

namespace odr::ap {
namespace {

enum : std::uint16_t {
  kTagRng = 1,  // ..6
  kTagNextId = 10,
  kTagRebooting = 11,
  kTagCrashes = 12,
  kTagResumes = 13,
  kTagRebootEvent = 15,
  kTagTaskCount = 20,
  kTagTaskId = 21,
  kTagHasTask = 22,
  kTagBugEvent = 23,
  kTagRateRestriction = 24,
  kTagOriginalStart = 25,
  kTagPreservedBytes = 26,
  kTagPriorTraffic = 27,
  kTagCrashResumes = 28,
};

}  // namespace

SmartAp::SmartAp(sim::Simulator& sim, net::Network& net, SmartApConfig config,
                 const proto::SourceParams& sources, Rng& rng)
    : sim_(sim),
      net_(net),
      config_(std::move(config)),
      sources_(sources),
      rng_(rng.fork()),
      io_(io_profile(config_.device, config_.filesystem)) {
  assert(combination_supported(config_.device, config_.filesystem));
}

Rate SmartAp::storage_write_ceiling() const { return io_.max_write_rate; }

double SmartAp::iowait_at(Rate rate) const { return io_.iowait_at(rate); }

SimTime SmartAp::lan_fetch_duration(Bytes bytes, Rng& rng) const {
  const Rate lan = rng.uniform(config_.hardware.lan_fetch_min,
                               config_.hardware.lan_fetch_max);
  return from_seconds(static_cast<double>(bytes) / lan);
}

std::uint64_t SmartAp::predownload(const workload::FileInfo& file,
                                   Rate rate_restriction, DoneFn done) {
  const std::uint64_t id = next_id_++;
  ODR_COUNT("ap.predownloads.submitted");
  Running r;
  r.done = std::move(done);
  r.file = file;
  r.rate_restriction = rate_restriction;
  r.original_start = sim_.now();
  if (rebooting_) {
    // The router is down; the request is queued on-disk and started when
    // the reboot completes (the reboot event walks task-less entries).
    tasks_.emplace(id, std::move(r));
    return id;
  }
  start_task(id, std::move(r));
  return id;
}

Bytes SmartAp::cancel(std::uint64_t id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return 0;  // already finished: no-op
  ODR_COUNT("ap.predownloads.cancelled");
  Running& r = it->second;
  if (r.task) {
    // Wasted work: this attempt's bytes plus whatever earlier
    // crash-interrupted attempts had preserved on disk.
    const Bytes moved = r.preserved_bytes + r.task->bytes_done();
    // abort() reports kAborted through on_done(id, ...) synchronously;
    // on_done buries the task and erases the entry.
    r.task->abort();
    return moved;
  }
  // Queued behind a reboot (no live task): synthesize the aborted result
  // with the same crash-stitched fields on_done would have patched in.
  Running run = std::move(it->second);
  tasks_.erase(it);
  proto::DownloadResult result;
  result.success = false;
  result.cause = proto::FailureCause::kAborted;
  result.started_at = run.original_start;
  result.finished_at = sim_.now();
  result.file_size = run.file.size;
  result.bytes_downloaded = run.preserved_bytes;
  result.traffic_bytes = run.prior_traffic;
  result.average_rate =
      average_rate(run.preserved_bytes, sim_.now() - run.original_start);
  if (run.done) run.done(result);
  return run.preserved_bytes;
}

void SmartAp::start_task(std::uint64_t id, Running r) {
  const Bytes remaining =
      r.file.size > r.preserved_bytes ? r.file.size - r.preserved_bytes : 1;

  auto source = proto::make_source(r.file.protocol,
                                   r.file.expected_weekly_requests, sources_,
                                   rng_);
  proto::DownloadTask::Config cfg;
  // The line (restricted to the replayed user's bandwidth) and Bottleneck
  // 4, the storage write ceiling.
  cfg.rate_ceiling = std::min({kLineRate * kTransportEfficiency,
                               r.rate_restriction, io_.max_write_rate});
  cfg.obs_file_index = r.file.index;

  r.task = std::make_unique<proto::DownloadTask>(
      sim_, net_, std::move(source), remaining, cfg,
      [this, id](const proto::DownloadResult& result) { on_done(id, result); });

  // Firmware-bug injection: a small fraction of attempts die for reasons
  // unrelated to the source (§5.2 attributes 4% of failures to bugs in
  // HiWiFi/MiWiFi/Newifi).
  if (rng_.bernoulli(config_.bug_failure_prob)) {
    const SimTime crash_after = from_minutes(rng_.uniform(1.0, 90.0));
    proto::DownloadTask* task_ptr = r.task.get();
    r.bug_event = sim_.schedule_after(crash_after, [task_ptr] {
      task_ptr->fail_externally(proto::FailureCause::kSystemBug);
    });
  }

  proto::DownloadTask* task_ptr = r.task.get();
  tasks_.insert_or_assign(id, std::move(r));
  task_ptr->start(rng_);
}

void SmartAp::crash() {
  if (rebooting_) return;  // already down
  ++crashes_;
  rebooting_ = true;
  ODR_COUNT("ap.crashes");
  ODR_TRACE_INSTANT(kAp, "ap.crash");
  ODR_FLIGHT(kAp, kWarn, "ap.crash", static_cast<double>(tasks_.size()));

  // Interrupt every running task. P2P clients persist piece state to the
  // USB disk, so their completed bytes survive the crash; HTTP/FTP fetches
  // lose everything. A task over its resume budget fails with kCrash.
  std::vector<std::uint64_t> doomed;
  for (auto& [id, r] : tasks_) {
    if (!r.task) continue;  // queued during a previous reboot window
    if (r.bug_event != sim::kInvalidEvent) {
      sim_.cancel(r.bug_event);
      r.bug_event = sim::kInvalidEvent;
    }
    const Bytes attempt_bytes = r.task->bytes_done();
    if (proto::is_p2p(r.file.protocol)) {
      r.preserved_bytes = std::min<Bytes>(
          r.file.size, r.preserved_bytes + attempt_bytes);
    } else {
      r.preserved_bytes = 0;
    }
    // Bytes moved in the interrupted attempt crossed the wire regardless.
    r.prior_traffic += static_cast<Bytes>(
        std::llround(static_cast<double>(attempt_bytes) *
                     r.task->source().traffic_factor()));
    r.task.reset();  // silent teardown: no callback, flow cancelled
    // The post-reboot restart is one more attempt from the span's view.
    ODR_SPAN(note_file_retry(r.file.index));
    if (++r.crash_resumes > kMaxCrashResumes) doomed.push_back(id);
  }
  // Deterministic failure-callback order regardless of hash-map layout.
  std::sort(doomed.begin(), doomed.end());

  for (std::uint64_t id : doomed) {
    auto it = tasks_.find(id);
    Running r = std::move(it->second);
    tasks_.erase(it);
    proto::DownloadResult result;
    result.success = false;
    result.cause = proto::FailureCause::kCrash;
    result.started_at = r.original_start;
    result.finished_at = sim_.now();
    result.file_size = r.file.size;
    result.bytes_downloaded = r.preserved_bytes;
    result.traffic_bytes = r.prior_traffic;
    result.average_rate =
        average_rate(r.preserved_bytes, sim_.now() - r.original_start);
    if (r.done) r.done(result);
  }

  reboot_event_ =
      sim_.schedule_after(kRebootDelay, [this] { finish_reboot(); });
}

void SmartAp::finish_reboot() {
  reboot_event_ = sim::kInvalidEvent;
  rebooting_ = false;
  ODR_COUNT("ap.reboots");
  ODR_TRACE_INSTANT(kAp, "ap.reboot");
  std::vector<std::uint64_t> to_start;
  for (const auto& [id, r] : tasks_) {
    if (!r.task) to_start.push_back(id);
  }
  std::sort(to_start.begin(), to_start.end());  // deterministic order
  for (std::uint64_t id : to_start) {
    auto it = tasks_.find(id);
    if (it == tasks_.end()) continue;
    if (it->second.crash_resumes > 0) ++resumes_;
    Running r = std::move(it->second);
    start_task(id, std::move(r));
  }
}

void SmartAp::on_done(std::uint64_t id, const proto::DownloadResult& result) {
  auto it = tasks_.find(id);
  assert(it != tasks_.end());
  // We are inside the task's own callback: it dies with `r` when this
  // returns.
  Running r = std::move(it->second);
  if (r.bug_event != sim::kInvalidEvent) sim_.cancel(r.bug_event);
  tasks_.erase(it);

  // Stitch crash-interrupted attempts into one user-visible result.
  proto::DownloadResult patched = result;
  patched.started_at = r.original_start;
  patched.file_size = r.file.size;
  patched.bytes_downloaded = std::min<Bytes>(
      r.file.size, r.preserved_bytes + result.bytes_downloaded);
  if (patched.success) patched.bytes_downloaded = r.file.size;
  patched.traffic_bytes = result.traffic_bytes + r.prior_traffic;
  const SimTime elapsed = patched.duration();
  patched.average_rate =
      patched.success ? average_rate(patched.file_size, elapsed)
                      : average_rate(patched.bytes_downloaded, elapsed);

  if (r.done) r.done(patched);
}

std::size_t SmartAp::pending_event_count() const {
  std::size_t n = 0;
  if (reboot_event_ != sim::kInvalidEvent) ++n;
  for (const auto& [id, r] : tasks_) {
    if (r.bug_event != sim::kInvalidEvent) ++n;
    if (r.task && r.task->tick_pending()) ++n;
  }
  return n;
}

void SmartAp::save(snapshot::SnapshotWriter& w) const {
  save_rng(w, kTagRng, rng_);
  w.u64(kTagNextId, next_id_);
  w.b(kTagRebooting, rebooting_);
  w.u64(kTagCrashes, crashes_);
  w.u64(kTagResumes, resumes_);
  w.u64(kTagRebootEvent, reboot_event_);

  std::vector<std::uint64_t> ids;
  ids.reserve(tasks_.size());
  for (const auto& [id, r] : tasks_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  w.u64(kTagTaskCount, ids.size());
  for (std::uint64_t id : ids) {
    const Running& r = tasks_.at(id);
    w.u64(kTagTaskId, id);
    w.b(kTagHasTask, static_cast<bool>(r.task));
    w.u64(kTagBugEvent, r.bug_event);
    workload::save_file_info(w, r.file);
    w.f64(kTagRateRestriction, r.rate_restriction);
    w.i64(kTagOriginalStart, r.original_start);
    w.u64(kTagPreservedBytes, r.preserved_bytes);
    w.u64(kTagPriorTraffic, r.prior_traffic);
    w.u32(kTagCrashResumes, r.crash_resumes);
    if (r.task) r.task->save(w);
  }
}

void SmartAp::load(snapshot::SnapshotReader& r, const RebindDoneFn& rebind) {
  load_rng(r, kTagRng, rng_);
  next_id_ = r.u64(kTagNextId);
  rebooting_ = r.b(kTagRebooting);
  crashes_ = r.u64(kTagCrashes);
  resumes_ = r.u64(kTagResumes);
  reboot_event_ = r.u64(kTagRebootEvent);

  tasks_.clear();
  const std::uint64_t count = r.u64(kTagTaskCount);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t id = r.u64(kTagTaskId);
    const bool has_task = r.b(kTagHasTask);
    Running run;
    run.bug_event = r.u64(kTagBugEvent);
    run.file = workload::load_file_info(r);
    run.rate_restriction = r.f64(kTagRateRestriction);
    run.original_start = r.i64(kTagOriginalStart);
    run.preserved_bytes = r.u64(kTagPreservedBytes);
    run.prior_traffic = r.u64(kTagPriorTraffic);
    run.crash_resumes = r.u32(kTagCrashResumes);
    run.done = rebind(id);
    if (has_task) {
      run.task = proto::DownloadTask::restore(
          sim_, net_, r, sources_,
          [this, id](const proto::DownloadResult& result) {
            on_done(id, result);
          },
          rng_);
      if (run.bug_event != sim::kInvalidEvent) {
        proto::DownloadTask* task_ptr = run.task.get();
        sim_.rearm(run.bug_event, [task_ptr] {
          task_ptr->fail_externally(proto::FailureCause::kSystemBug);
        });
      }
    }
    tasks_.emplace(id, std::move(run));
  }

  if (reboot_event_ != sim::kInvalidEvent) {
    sim_.rearm(reboot_event_, [this] { finish_reboot(); });
  }
}

}  // namespace odr::ap
