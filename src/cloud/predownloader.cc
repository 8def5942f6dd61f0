#include "cloud/predownloader.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "obs/observer.h"
#include "snapshot/format.h"

namespace odr::cloud {
namespace {

enum : std::uint16_t {
  kTagRng = 1,  // ..6
  kTagCorruption = 10,
  kTagNextSlot = 11,
  kTagStarted = 12,
  kTagCrashes = 13,
  kTagRetries = 14,
  kTagRetriesExhausted = 15,
  kTagNextRetryKey = 16,
  kTagActiveCount = 20,
  kTagSlot = 21,
  kTagAttempt = 22,
  kTagFile = 23,
  kTagQueueCount = 30,
  kTagRetryCount = 40,
  kTagRetryKey = 41,
  kTagRetryEvent = 42,
  kTagBudgetDenied = 60,
};

// Each VM's Internet access: ~20 Mbps (§2.1).
constexpr Rate kPredownloaderRate = mbps_to_rate(20.0);

// A retried task waits kRetryBackoffBase * kRetryBackoffFactor^(attempt-1)
// before it re-enters the VM queue.
constexpr SimTime kRetryBackoffBase = kMinute;
constexpr double kRetryBackoffFactor = 2.0;

core::RetryBudget::Config budget_config(const CloudConfig& config) {
  core::RetryBudget::Config b;
  b.enabled = config.retry_budget_enabled;
  b.global_capacity = config.retry_budget_global_capacity;
  b.global_refill_per_hour = config.retry_budget_global_refill_per_hour;
  return b;
}

}  // namespace

PreDownloaderPool::PreDownloaderPool(sim::Simulator& sim, net::Network& net,
                                     const workload::Catalog& catalog,
                                     const CloudConfig& config,
                                     const proto::SourceParams& sources,
                                     Rng& rng, DoneFn done)
    : sim_(sim),
      net_(net),
      catalog_(catalog),
      config_(config),
      sources_(sources),
      rng_(rng.fork()),
      done_(std::move(done)),
      retry_budget_(budget_config(config)) {}

void PreDownloaderPool::submit(workload::FileIndex file) {
  const Pending pending{file, 0};
  if (active_.size() >= config_.predownloader_count) {
    queue_.push_back(pending);
    return;
  }
  start_task(pending);
}

void PreDownloaderPool::start_task(Pending pending) {
  const std::uint64_t slot = next_slot_++;
  ++started_;
  ODR_COUNT("cloud.vm.tasks.started");

  const workload::FileInfo& file = catalog_.file(pending.file);
  auto source = proto::make_source(file.protocol, file.expected_weekly_requests,
                                   sources_, rng_);
  proto::DownloadTask::Config cfg;
  cfg.rate_ceiling = kPredownloaderRate * kTransportEfficiency;
  cfg.corruption_prob = corruption_prob_;
  cfg.obs_file_index = pending.file;
  auto task = std::make_unique<proto::DownloadTask>(
      sim_, net_, std::move(source), file.size, cfg,
      [this, slot](const proto::DownloadResult& result) {
        on_task_done(slot, result);
      });
  task->start(rng_);
  active_.emplace(slot, Active{std::move(task), pending.file, pending.attempt});
}

std::size_t PreDownloaderPool::inject_crashes(double prob, Rng& rng) {
  // Visit slots in sorted order so the rng draw sequence does not depend
  // on hash-map iteration order (save/restore determinism). Collect first:
  // fail_externally() re-enters on_task_done, which mutates active_.
  std::vector<std::uint64_t> slots;
  slots.reserve(active_.size());
  for (const auto& [slot, a] : active_) slots.push_back(slot);
  std::sort(slots.begin(), slots.end());
  std::vector<std::uint64_t> victims;
  victims.reserve(slots.size());
  for (std::uint64_t slot : slots) {
    if (rng.bernoulli(prob)) victims.push_back(slot);
  }
  std::size_t crashed = 0;
  for (std::uint64_t slot : victims) {
    auto it = active_.find(slot);
    if (it == active_.end() || !it->second.task->running()) continue;
    ++crashes_;
    ++crashed;
    ODR_COUNT("cloud.vm.crashes");
    it->second.task->fail_externally(proto::FailureCause::kCrash);
  }
  if (crashed > 0) {
    ODR_FLIGHT(kCloud, kWarn, "vm.crashes_injected",
               static_cast<double>(crashed));
  }
  return crashed;
}

void PreDownloaderPool::start_next_queued() {
  if (!queue_.empty() && active_.size() < config_.predownloader_count) {
    const Pending next = queue_.front();
    queue_.pop_front();
    start_task(next);
  }
}

void PreDownloaderPool::resume_retry(std::uint64_t key) {
  auto it = retrying_.find(key);
  assert(it != retrying_.end());
  const Pending pending = it->second.pending;
  retrying_.erase(it);
  if (active_.size() < config_.predownloader_count) {
    start_task(pending);
  } else {
    queue_.push_front(pending);
  }
}

void PreDownloaderPool::on_task_done(std::uint64_t slot,
                                     const proto::DownloadResult& result) {
  auto it = active_.find(slot);
  assert(it != active_.end());
  const Pending pending{it->second.file, it->second.attempt + 1};
  // We are inside the task's own callback: it dies when this returns.
  const std::unique_ptr<proto::DownloadTask> finished =
      std::move(it->second.task);
  active_.erase(it);

  // Infrastructure faults are retried; the VM slot is freed immediately
  // and the task re-enters the queue at the FRONT once its backoff
  // expires, preserving FIFO fairness against younger submissions.
  ODR_COUNT(result.success ? "cloud.vm.tasks.succeeded"
                           : "cloud.vm.tasks.failed");
  ODR_TRACE_COMPLETE(kCloud, result.success ? "vm.task.ok" : "vm.task.fail",
                     result.started_at, result.finished_at);
  if (!result.success && proto::is_infrastructure_cause(result.cause) &&
      pending.attempt <= config_.predownload_max_retries) {
    // Every front-requeue retry charges the shared retry/hedge budget; an
    // exhausted bucket sheds the task through the terminal path below
    // (counted under retries_exhausted_) instead of spinning.
    if (retry_budget_.try_acquire_global(sim_.now())) {
      ++retries_;
      ODR_COUNT("cloud.vm.retries");
      ODR_SPAN(note_file_retry(pending.file));
      const double factor = std::pow(
          kRetryBackoffFactor, static_cast<double>(pending.attempt - 1));
      const SimTime backoff = static_cast<SimTime>(
          static_cast<double>(kRetryBackoffBase) * factor);
      const std::uint64_t key = next_retry_++;
      const sim::EventId event =
          sim_.schedule_after(backoff, [this, key] { resume_retry(key); }).id;
      retrying_.emplace(key, Retry{pending, event});
      start_next_queued();
      return;
    }
    ++retry_budget_denied_;
    ODR_COUNT("cloud.vm.retry_budget_denied");
    ODR_FLIGHT(kCloud, kWarn, "vm.retry_budget_denied",
               static_cast<double>(pending.attempt));
  }

  if (!result.success && proto::is_infrastructure_cause(result.cause)) {
    ++retries_exhausted_;
    ODR_COUNT("cloud.vm.retries_exhausted");
    ODR_FLIGHT(kCloud, kWarn, "vm.retries_exhausted",
               static_cast<double>(pending.attempt));
  }
  start_next_queued();
  done_(pending.file, result);
}

std::vector<net::FlowId> PreDownloaderPool::active_flow_ids() const {
  std::vector<net::FlowId> flows;
  flows.reserve(active_.size());
  for (const auto& [slot, a] : active_) {
    if (a.task->flow_id() != net::kInvalidFlow) {
      flows.push_back(a.task->flow_id());
    }
  }
  std::sort(flows.begin(), flows.end());
  return flows;
}

std::size_t PreDownloaderPool::pending_event_count() const {
  std::size_t n = retrying_.size();
  for (const auto& [slot, a] : active_) {
    if (a.task->event_pending()) ++n;
  }
  return n;
}

void PreDownloaderPool::save(snapshot::SnapshotWriter& w) const {
  save_rng(w, kTagRng, rng_);
  w.f64(kTagCorruption, corruption_prob_);
  w.u64(kTagNextSlot, next_slot_);
  w.u64(kTagStarted, started_);
  w.u64(kTagCrashes, crashes_);
  w.u64(kTagRetries, retries_);
  w.u64(kTagRetriesExhausted, retries_exhausted_);
  w.u64(kTagNextRetryKey, next_retry_);

  std::vector<std::uint64_t> slots;
  slots.reserve(active_.size());
  for (const auto& [slot, a] : active_) slots.push_back(slot);
  std::sort(slots.begin(), slots.end());
  w.u64(kTagActiveCount, slots.size());
  for (std::uint64_t slot : slots) {
    const Active& a = active_.at(slot);
    w.u64(kTagSlot, slot);
    w.u32(kTagAttempt, a.attempt);
    w.u32(kTagFile, a.file);
    a.task->save(w);
  }

  w.u64(kTagQueueCount, queue_.size());
  for (const Pending& p : queue_) {
    w.u32(kTagAttempt, p.attempt);
    w.u32(kTagFile, p.file);
  }

  w.u64(kTagRetryCount, retrying_.size());
  for (const auto& [key, entry] : retrying_) {
    w.u64(kTagRetryKey, key);
    w.u64(kTagRetryEvent, entry.event);
    w.u32(kTagAttempt, entry.pending.attempt);
    w.u32(kTagFile, entry.pending.file);
  }

  w.u64(kTagBudgetDenied, retry_budget_denied_);
  retry_budget_.save(w);
}

workload::FileIndex PreDownloaderPool::load_file(snapshot::SnapshotReader& r,
                                                const char* entry) const {
  const workload::FileIndex file = r.u32(kTagFile);
  if (file >= catalog_.size()) {
    throw snapshot::SnapshotError(
        std::string("vm: ") + entry + " pre-download names file " +
            std::to_string(file) + " but the catalog has " +
            std::to_string(catalog_.size()) + " files",
        snapshot::SnapshotErrorKind::kCorrupt);
  }
  return file;
}

void PreDownloaderPool::load(snapshot::SnapshotReader& r) {
  load_rng(r, kTagRng, rng_);
  corruption_prob_ = r.f64(kTagCorruption);
  next_slot_ = r.u64(kTagNextSlot);
  started_ = r.u64(kTagStarted);
  crashes_ = r.u64(kTagCrashes);
  retries_ = r.u64(kTagRetries);
  retries_exhausted_ = r.u64(kTagRetriesExhausted);
  next_retry_ = r.u64(kTagNextRetryKey);

  active_.clear();
  queue_.clear();
  retrying_.clear();

  const std::uint64_t actives = r.u64(kTagActiveCount);
  for (std::uint64_t i = 0; i < actives; ++i) {
    const std::uint64_t slot = r.u64(kTagSlot);
    const std::uint32_t attempt = r.u32(kTagAttempt);
    const workload::FileIndex file = load_file(r, "active");
    auto task = proto::DownloadTask::restore(
        sim_, net_, r, sources_,
        [this, slot](const proto::DownloadResult& result) {
          on_task_done(slot, result);
        },
        rng_);
    active_.emplace(slot, Active{std::move(task), file, attempt});
  }

  const std::uint64_t queued = r.u64(kTagQueueCount);
  for (std::uint64_t i = 0; i < queued; ++i) {
    const std::uint32_t attempt = r.u32(kTagAttempt);
    queue_.push_back(Pending{load_file(r, "queued"), attempt});
  }

  const std::uint64_t retry_count = r.u64(kTagRetryCount);
  for (std::uint64_t i = 0; i < retry_count; ++i) {
    const std::uint64_t key = r.u64(kTagRetryKey);
    const sim::EventId event = r.u64(kTagRetryEvent);
    const std::uint32_t attempt = r.u32(kTagAttempt);
    const workload::FileIndex file = load_file(r, "retrying");
    sim_.rearm(event, [this, key] { resume_retry(key); });
    retrying_.emplace(key, Retry{Pending{file, attempt}, event});
  }

  retry_budget_denied_ = r.u64(kTagBudgetDenied);
  retry_budget_.load(r);
}

}  // namespace odr::cloud
