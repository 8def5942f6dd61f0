// XuanfengCloud: end-to-end orchestration of a cloud offline-download task.
//
// Lifecycle of a submitted request (Figure 1 + §2.1):
//   1. record the request in the content database;
//   2. cache lookup by MD5 content id — a hit is an instantly-successful
//      pre-download (zero delay, zero pre-download traffic);
//   3. on a miss, pre-download via the VM pool (attaching to an already
//      in-flight pre-download of the same file if one exists: file-level
//      dedup applies to concurrent requests too);
//   4. on pre-download success (or a cache hit), construct the fetch path:
//      privileged same-ISP upload server when possible, degraded cross-ISP
//      path otherwise, or rejection when every cluster is exhausted;
//   5. report a TaskOutcome with the pre-download and fetch trace records.
//
// Active user fetches are tracked in a flow-id-keyed table (not captured
// closures), so the whole cloud — in-flight pre-downloads, waiter queues,
// and running fetches — can checkpoint and restore mid-flight.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "cloud/config.h"
#include "cloud/content_db.h"
#include "cloud/predownloader.h"
#include "cloud/storage_pool.h"
#include "cloud/upload_scheduler.h"
#include "net/isp.h"
#include "net/network.h"
#include "proto/source.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/trace.h"
#include "workload/user_model.h"

namespace odr::snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace odr::snapshot

namespace odr::cloud {

class XuanfengCloud {
 public:
  using OutcomeFn = std::function<void(const workload::TaskOutcome&)>;

  XuanfengCloud(sim::Simulator& sim, net::Network& net,
                const workload::Catalog& catalog,
                const proto::SourceParams& sources, const CloudConfig& config,
                Rng& rng);

  XuanfengCloud(const XuanfengCloud&) = delete;
  XuanfengCloud& operator=(const XuanfengCloud&) = delete;

  // Submits an offline-downloading task. `user` provides ground-truth
  // access bandwidth and ISP; `on_done` fires once, when the task reaches
  // a terminal state (fetched, rejected, or pre-download failed). Like
  // submit_clone and predownload_only, it throws std::out_of_range before
  // touching any state when request.file is past the catalog's end.
  void submit(const workload::WorkloadRecord& request,
              const workload::User& user, OutcomeFn on_done);

  // Hedged-clone submission: identical to submit() except the request is
  // NOT recorded in the content database — the primary leg of the hedge
  // pair already recorded it, and a speculative clone double-counting the
  // file would inflate its measured popularity.
  void submit_clone(const workload::WorkloadRecord& request,
                    const workload::User& user, OutcomeFn on_done);

  // Component-scoped cancel fast path (hedged loser-cancel): tears down
  // whatever stage task `id` is in — a waiter attached to an in-flight
  // pre-download (the shared pre-download itself keeps running for the
  // benefit of other waiters and the cache: a cancelled clone must never
  // un-admit a file), or an active user fetch (flow cancelled, upload
  // reservation released). The task's on_done fires synchronously with an
  // aborted outcome (pre.failure_cause / TaskOutcome::aborted). Returns
  // the bytes the cancelled fetch had already moved (wasted work); 0 for
  // waiter-stage cancels or when the task is not in flight (no-op).
  Bytes cancel_task(workload::TaskId id);

  // Pre-download only (used by ODR's "Cloud pre-download, then decide"
  // branch): stops after stage 3, reporting the pre-download record.
  using PreDownloadFn = std::function<void(const workload::PreDownloadRecord&)>;
  void predownload_only(const workload::WorkloadRecord& request,
                        PreDownloadFn on_done);

  // Fetch-only entry point (used by ODR after a predownload_only phase):
  // runs stage 4 for a file assumed present in the cloud, attaching the
  // caller-supplied pre-download record to the outcome.
  void fetch_only(const workload::WorkloadRecord& request,
                  const workload::User& user, workload::PreDownloadRecord pre,
                  OutcomeFn on_done);

  // Warms the cache as if `file` had been downloaded earlier (used to
  // model the multi-year-old storage pool before the measurement week).
  void warm_cache(const workload::FileInfo& file);

  ContentDb& content_db() { return content_db_; }
  const ContentDb& content_db() const { return content_db_; }
  StoragePool& storage() { return storage_; }
  const StoragePool& storage() const { return storage_; }
  UploadScheduler& uploads() { return uploads_; }
  const UploadScheduler& uploads() const { return uploads_; }
  PreDownloaderPool& predownloaders() { return predownloaders_; }
  const PreDownloaderPool& predownloaders() const { return predownloaders_; }

  const CloudConfig& config() const { return config_; }

  // User fetch flows currently in flight (audit accounting).
  std::size_t active_fetch_count() const { return fetches_.size(); }
  std::vector<net::FlowId> fetch_flow_ids() const;
  // Distinct files with an in-flight pre-download and attached waiters.
  std::size_t inflight_predownload_count() const { return inflight_.size(); }

  // --- snapshot support -----------------------------------------------------
  //
  // save() writes the cloud's full mutable state as five checkpoint
  // sections, one per snapshot::Subsystem it owns: rng, caches (the
  // content db's and storage pool's counters and digests; the world
  // writes their records after every subsystem section, in its cache
  // window section), uploads (upload clusters), vm (the VM pool with every
  // mid-flight DownloadTask) and tasks (the waiter queues and the active
  // user fetches). load() reads them back on a freshly constructed cloud;
  // every restored outcome callback is rebound to `sink` (per-task closures
  // cannot be checkpointed — the driving harness owns one uniform outcome
  // sink instead). The VM pool reports to this cloud through the one
  // callback it was built with, so it needs no rebind; its entries, the
  // in-flight files, the waiters and the active fetches all name their
  // file by catalog index, and load() refuses (SnapshotError, kCorrupt) an
  // index past the catalog's end or a waiter filed under another file.
  // predownload_only waiters hold caller closures with no rebindable
  // identity; save() refuses (SnapshotError) if any are pending.
  void save(snapshot::SnapshotWriter& w) const;
  void load(snapshot::SnapshotReader& r, OutcomeFn sink);

  // Test hook for bench/divergence_triage: consumes one draw from the
  // cloud's private rng stream, deliberately desynchronizing this run from
  // an otherwise-identical one. Never called unless
  // ExperimentConfig::debug_burn_rng_at_event is set.
  void debug_burn_rng_draw();

 private:
  // A request attached to an in-flight pre-download, with the two user
  // attributes its fetch needs.
  struct Waiter {
    workload::WorkloadRecord request;
    net::Isp isp = net::Isp::kTelecom;
    Rate access_bandwidth = 0.0;
    OutcomeFn on_done = nullptr;
    PreDownloadFn pre_only = nullptr;  // set for predownload_only waiters
    SimTime enqueued_at = 0;
  };
  // A user fetch in flight: everything the completion handler needs to
  // finalize the record, keyed by the flow id.
  struct ActiveFetch {
    net::FlowHandle flow;  // for cancel_task
    workload::TaskOutcome outcome;
    FetchPlan plan;
    double overhead = 1.0;
    OutcomeFn on_done;
  };

  void submit_impl(const workload::WorkloadRecord& request,
                   const workload::User& user, OutcomeFn on_done);
  // The miss path: attaches `w` to its file's in-flight pre-download,
  // starting one in the VM pool for the file's first waiter.
  void await_predownload(Waiter w);
  void on_predownload_done(workload::FileIndex file,
                           const proto::DownloadResult& result);
  void begin_fetch(const workload::WorkloadRecord& request, net::Isp isp,
                   Rate access_bandwidth, workload::PreDownloadRecord pre,
                   OutcomeFn on_done);
  void on_fetch_complete(net::FlowId id);
  workload::PreDownloadRecord make_cache_hit_record(
      const workload::WorkloadRecord& request) const;
  // The outcome of `request` after `pre`, with the file's popularity now.
  workload::TaskOutcome make_outcome(
      const workload::WorkloadRecord& request,
      const workload::PreDownloadRecord& pre) const;

  sim::Simulator& sim_;
  net::Network& net_;
  const workload::Catalog& catalog_;
  CloudConfig config_;
  Rng rng_;

  ContentDb content_db_;
  StoragePool storage_;
  UploadScheduler uploads_;
  PreDownloaderPool predownloaders_;

  // In-flight pre-downloads by file: all waiters share one download.
  std::unordered_map<workload::FileIndex, std::vector<Waiter>> inflight_;
  std::unordered_map<net::FlowId, ActiveFetch> fetches_;
};

}  // namespace odr::cloud
