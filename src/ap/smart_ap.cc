#include "ap/smart_ap.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "obs/observer.h"

namespace odr::ap {

SmartAp::SmartAp(sim::Simulator& sim, net::Network& net, SmartApConfig config,
                 const proto::SourceParams& sources, Rng& rng, DoneFn done)
    : sim_(sim),
      net_(net),
      config_(std::move(config)),
      sources_(sources),
      rng_(rng.fork()),
      io_(io_profile(config_.device, config_.filesystem)),
      done_(std::move(done)) {
  assert(combination_supported(config_.device, config_.filesystem));
}

Rate SmartAp::storage_write_ceiling() const { return io_.max_write_rate; }

double SmartAp::iowait_at(Rate rate) const { return io_.iowait_at(rate); }

SimTime SmartAp::lan_fetch_duration(Bytes bytes, Rng& rng) const {
  const Rate lan = rng.uniform(config_.hardware.lan_fetch_min,
                               config_.hardware.lan_fetch_max);
  return from_seconds(static_cast<double>(bytes) / lan);
}

void SmartAp::predownload(std::uint64_t id, const workload::FileInfo& file,
                          Rate rate_restriction) {
  assert(!tasks_.contains(id));
  ODR_COUNT("ap.predownloads.submitted");
  Running r;
  r.file = file.index;
  r.protocol = file.protocol;
  r.size = file.size;
  r.expected_weekly_requests = file.expected_weekly_requests;
  r.rate_restriction = rate_restriction;
  r.original_start = sim_.now();
  if (rebooting_) {
    // The router is down; the request is queued on-disk and started when
    // the reboot completes (the reboot event walks task-less entries).
    tasks_.emplace(id, std::move(r));
    return;
  }
  start_task(id, std::move(r));
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
  // Queued behind a reboot (no live task): report the aborted result with
  // the same crash-stitched fields on_done would have patched in.
  const Running run = std::move(it->second);
  tasks_.erase(it);
  report_unstarted(id, run, proto::FailureCause::kAborted);
  return run.preserved_bytes;
}

void SmartAp::report_unstarted(std::uint64_t id, const Running& run,
                               proto::FailureCause cause) {
  proto::DownloadResult result;
  result.success = false;
  result.cause = cause;
  result.started_at = run.original_start;
  result.finished_at = sim_.now();
  result.file_size = run.size;
  result.bytes_downloaded = run.preserved_bytes;
  result.traffic_bytes = run.prior_traffic;
  result.average_rate =
      average_rate(run.preserved_bytes, sim_.now() - run.original_start);
  if (done_) done_(id, result);
}

void SmartAp::start_task(std::uint64_t id, Running r) {
  const Bytes remaining =
      r.size > r.preserved_bytes ? r.size - r.preserved_bytes : 1;

  auto source = proto::make_source(r.protocol, r.expected_weekly_requests,
                                   sources_, rng_);
  proto::DownloadTask::Config cfg;
  // The line (restricted to the replayed user's bandwidth) and Bottleneck
  // 4, the storage write ceiling.
  cfg.rate_ceiling = std::min({kLineRate * kTransportEfficiency,
                               r.rate_restriction, io_.max_write_rate});
  cfg.obs_file_index = r.file;

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
    sim_.cancel(r.bug_event);
    r.bug_event = {};
    const Bytes attempt_bytes = r.task->bytes_done();
    if (proto::is_p2p(r.protocol)) {
      r.preserved_bytes =
          std::min<Bytes>(r.size, r.preserved_bytes + attempt_bytes);
    } else {
      r.preserved_bytes = 0;
    }
    // Bytes moved in the interrupted attempt crossed the wire regardless.
    r.prior_traffic += static_cast<Bytes>(
        std::llround(static_cast<double>(attempt_bytes) *
                     r.task->source().traffic_factor()));
    r.task.reset();  // silent teardown: no callback, flow cancelled
    // The post-reboot restart is one more attempt from the span's view.
    ODR_SPAN(note_file_retry(r.file));
    if (++r.crash_resumes > kMaxCrashResumes) doomed.push_back(id);
  }
  // Deterministic failure-callback order regardless of hash-map layout.
  std::sort(doomed.begin(), doomed.end());

  for (std::uint64_t id : doomed) {
    auto it = tasks_.find(id);
    const Running r = std::move(it->second);
    tasks_.erase(it);
    report_unstarted(id, r, proto::FailureCause::kCrash);
  }

  sim_.schedule_after(kRebootDelay, [this] { finish_reboot(); });
}

void SmartAp::finish_reboot() {
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
  sim_.cancel(r.bug_event);
  tasks_.erase(it);

  // Stitch crash-interrupted attempts into one user-visible result.
  proto::DownloadResult patched = result;
  patched.started_at = r.original_start;
  patched.file_size = r.size;
  patched.bytes_downloaded =
      std::min<Bytes>(r.size, r.preserved_bytes + result.bytes_downloaded);
  if (patched.success) patched.bytes_downloaded = r.size;
  patched.traffic_bytes = result.traffic_bytes + r.prior_traffic;
  const SimTime elapsed = patched.duration();
  patched.average_rate =
      patched.success ? average_rate(patched.file_size, elapsed)
                      : average_rate(patched.bytes_downloaded, elapsed);

  if (done_) done_(id, patched);
}

}  // namespace odr::ap
