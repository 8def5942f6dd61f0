// Pre-downloader VM pool.
//
// §2.1: when a requested file is not cached, Xuanfeng assigns a virtual
// machine (a "pre-downloader") with ~20 Mbps of Internet access to fetch
// it from the original source. The pool bounds concurrency; excess
// requests queue FIFO. Each VM runs the shared DownloadTask engine, whose
// stagnation rule is Xuanfeng's §4.1 failure rule.
//
// Fault tolerance: a VM that dies mid-transfer (FailureCause::kCrash,
// injected by the fault layer) does not fail the task — the task is
// re-queued at the FRONT of the VM queue after an exponential backoff, so
// it keeps its FIFO position relative to younger work, up to
// CloudConfig::predownload_max_retries attempts. The same applies when the
// task's own checksum-verify retries are exhausted. `done` fires exactly
// once, on the terminal result. A finished task is moved out of the active
// table in its own done callback and dies when that callback returns.
//
// Deferred work (retry backoffs) is keyed state rather than captured
// closures, so the pool can checkpoint and restore itself mid-flight; see
// save()/load().
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cloud/config.h"
#include "core/budget.h"
#include "net/network.h"
#include "proto/download.h"
#include "proto/source.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/file.h"

namespace odr::snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace odr::snapshot

namespace odr::cloud {

class PreDownloaderPool {
 public:
  using DoneFn = std::function<void(const proto::DownloadResult&)>;
  // Recreates the owner's done-callback for a task found in a checkpoint.
  using RebindFn = std::function<DoneFn(const workload::FileInfo&)>;

  PreDownloaderPool(sim::Simulator& sim, net::Network& net,
                    const CloudConfig& config,
                    const proto::SourceParams& sources, Rng& rng);

  // Starts (or queues) a pre-download of `file`; `done` fires exactly once.
  void submit(const workload::FileInfo& file, DoneFn done);

  // --- fault-layer hooks ----------------------------------------------------

  // Crashes each active VM independently with probability `prob`; the
  // affected tasks follow the retry/backoff path above. Slots are visited
  // in sorted order so the rng draw sequence is iteration-order free.
  std::size_t inject_crashes(double prob, Rng& rng);

  // MD5 corruption probability applied to tasks STARTED while set (the
  // fault window); see DownloadTask::Config::corruption_prob.
  void set_corruption_prob(double prob) { corruption_prob_ = prob; }
  double corruption_prob() const { return corruption_prob_; }

  std::size_t active() const { return active_.size(); }
  std::size_t queued() const { return queue_.size(); }
  std::size_t retrying() const { return retrying_.size(); }
  std::uint64_t started_count() const { return started_; }
  std::uint64_t crash_count() const { return crashes_; }
  std::uint64_t retry_count() const { return retries_; }
  std::uint64_t retries_exhausted() const { return retries_exhausted_; }

  // The shared retry/hedge token budget (CloudConfig::retry_budget_*).
  // The pool owns it; the hedging executor draws from the same instance so
  // retries and clones compete for the same amplification allowance.
  core::RetryBudget& retry_budget() { return retry_budget_; }
  const core::RetryBudget& retry_budget() const { return retry_budget_; }
  // Retries shed because the budget was exhausted (terminal-failure path).
  std::uint64_t retry_budget_denied() const { return retry_budget_denied_; }

  // Simulator events this pool currently owns (audit accounting): one per
  // backoff in flight and one per active task with its event armed.
  std::size_t pending_event_count() const;
  // Network flows owned by active tasks, sorted (audit accounting).
  std::vector<net::FlowId> active_flow_ids() const;

  // --- snapshot support -----------------------------------------------------
  //
  // save() serializes the rng, counters, every queued/retrying request and
  // every active DownloadTask mid-flight. load() rebuilds them on a freshly
  // constructed pool; `rebind` recreates the owner-side done callbacks
  // (closures cannot be checkpointed).
  void save(snapshot::SnapshotWriter& w) const;
  void load(snapshot::SnapshotReader& r, const RebindFn& rebind);

 private:
  struct Pending {
    workload::FileInfo file;
    DoneFn done;
    std::uint32_t attempt = 0;  // completed attempts so far
  };
  struct Retry {
    Pending pending;
    sim::EventId event = sim::kInvalidEvent;
  };

  void start_task(Pending pending);
  void on_task_done(std::uint64_t slot, const proto::DownloadResult& result);
  void start_next_queued();
  void resume_retry(std::uint64_t key);

  sim::Simulator& sim_;
  net::Network& net_;
  CloudConfig config_;
  proto::SourceParams sources_;
  Rng rng_;

  struct Active {
    std::unique_ptr<proto::DownloadTask> task;
    workload::FileInfo file;
    DoneFn done;
    std::uint32_t attempt = 0;
  };
  std::unordered_map<std::uint64_t, Active> active_;
  std::deque<Pending> queue_;
  // Backoff-pending retries keyed by a monotone counter; the key (not a
  // closure) is what the simulator event carries, so it survives restore.
  std::map<std::uint64_t, Retry> retrying_;
  std::uint64_t next_retry_ = 1;
  std::uint64_t next_slot_ = 1;
  std::uint64_t started_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t retries_exhausted_ = 0;
  double corruption_prob_ = 0.0;
  core::RetryBudget retry_budget_;
  std::uint64_t retry_budget_denied_ = 0;
};

}  // namespace odr::cloud
