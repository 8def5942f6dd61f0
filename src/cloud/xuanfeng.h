// XuanfengCloud: end-to-end orchestration of a cloud offline-download task.
//
// Lifecycle of a submitted request (Figure 1 + §2.1):
//   1. cache lookup by MD5 content id — a hit is an instantly-successful
//      pre-download (zero delay, zero pre-download traffic);
//   2. on a miss, pre-download via the VM pool (attaching to an already
//      in-flight pre-download of the same file if one exists: file-level
//      dedup applies to concurrent requests too);
//   3. on pre-download success (or a cache hit), construct the fetch path:
//      privileged same-ISP upload server when possible, degraded cross-ISP
//      path otherwise, or rejection when every cluster is exhausted;
//   4. report a TaskOutcome with the pre-download and fetch trace records.
//
// Every outcome goes to the one sink the cloud is built with. The cloud
// never records a request in its content database: whoever receives the
// request (the §4 world, the executor) does. Waiters and active fetches
// hold data only, so the whole cloud — in-flight pre-downloads, waiter
// queues and running fetches — checkpoints and restores mid-flight.
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

  // `sink` receives every outcome the cloud reports; an empty one discards
  // them.
  XuanfengCloud(sim::Simulator& sim, net::Network& net,
                const workload::Catalog& catalog,
                const proto::SourceParams& sources, const CloudConfig& config,
                Rng& rng, OutcomeFn sink);

  XuanfengCloud(const XuanfengCloud&) = delete;
  XuanfengCloud& operator=(const XuanfengCloud&) = delete;

  // Submits an offline-downloading task. `user` provides ground-truth
  // access bandwidth and ISP; the sink hears the task once, when it reaches
  // a terminal state (fetched, rejected, or pre-download failed). Like every
  // entry point below, it throws std::out_of_range before touching any
  // state when request.file is past the catalog's end.
  void submit(const workload::WorkloadRecord& request,
              const workload::User& user);

  // Component-scoped cancel fast path (hedged loser-cancel): tears down
  // whatever stage task `id` is in — a waiter attached to an in-flight
  // pre-download (the shared pre-download itself keeps running for the
  // benefit of other waiters and the cache: a cancelled clone must never
  // un-admit a file), or an active user fetch (flow cancelled, upload
  // reservation released). The sink hears the task synchronously with an
  // aborted outcome (pre.failure_cause / TaskOutcome::aborted). Returns
  // the bytes the cancelled fetch had already moved (wasted work); 0 for
  // waiter-stage cancels or when the task is not in flight (no-op).
  Bytes cancel_task(workload::TaskId id);

  // Pre-download only (used by ODR's "Cloud pre-download, then decide"
  // branch): stops after stage 2 and reports an outcome holding only the
  // request's ids and the pre-download record.
  void predownload_only(const workload::WorkloadRecord& request);

  // Fetch-only entry point (used by ODR after a predownload_only phase):
  // runs stage 3 for a file assumed present in the cloud, attaching the
  // caller-supplied pre-download record to the outcome.
  void fetch_only(const workload::WorkloadRecord& request,
                  const workload::User& user, workload::PreDownloadRecord pre);

  // Warms the cache as if `file` had been downloaded earlier (used to
  // model the multi-year-old storage pool before the measurement week).
  void warm_cache(workload::FileIndex file);

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
  // user fetches). load() reads them back on a freshly constructed cloud,
  // whose sink then hears every restored task. The in-flight files, the
  // waiters and the active fetches all name their file by catalog index,
  // and load() refuses (SnapshotError, kCorrupt) an index past the
  // catalog's end or a waiter filed under another file. save() refuses
  // (SnapshotError, kUsage) a pending predownload_only waiter: the tasks
  // section has no field for one.
  void save(snapshot::SnapshotWriter& w) const;
  void load(snapshot::SnapshotReader& r);

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
    bool pre_only = false;  // a predownload_only request: no fetch follows
    Rate access_bandwidth = 0.0;
    SimTime enqueued_at = 0;
  };
  // A user fetch in flight: everything the completion handler needs to
  // finalize the record, keyed by the flow id.
  struct ActiveFetch {
    net::FlowHandle flow;  // for cancel_task
    workload::TaskOutcome outcome;
    FetchPlan plan;
    double overhead = 1.0;
  };

  // The miss path: attaches `w` to its file's in-flight pre-download,
  // starting one in the VM pool for the file's first waiter.
  void await_predownload(Waiter w);
  void on_predownload_done(workload::FileIndex file,
                           const proto::DownloadResult& result);
  void begin_fetch(const workload::WorkloadRecord& request, net::Isp isp,
                   Rate access_bandwidth, workload::PreDownloadRecord pre);
  void on_fetch_complete(net::FlowId id);
  workload::PreDownloadRecord make_cache_hit_record(
      const workload::WorkloadRecord& request) const;
  // The outcome of `request` after `pre`, with the file's popularity now.
  workload::TaskOutcome make_outcome(
      const workload::WorkloadRecord& request,
      const workload::PreDownloadRecord& pre) const;

  // Hands `outcome` to the sink, if there is one.
  void report(const workload::TaskOutcome& outcome) const {
    if (sink_) sink_(outcome);
  }

  sim::Simulator& sim_;
  net::Network& net_;
  const workload::Catalog& catalog_;
  CloudConfig config_;
  Rng rng_;
  OutcomeFn sink_;

  ContentDb content_db_;
  StoragePool storage_;
  UploadScheduler uploads_;
  PreDownloaderPool predownloaders_;

  // In-flight pre-downloads by file: all waiters share one download.
  std::unordered_map<workload::FileIndex, std::vector<Waiter>> inflight_;
  std::unordered_map<net::FlowId, ActiveFetch> fetches_;
};

}  // namespace odr::cloud
