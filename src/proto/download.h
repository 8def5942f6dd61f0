// DownloadTask: one (pre-)download attempt driven to completion or failure.
//
// This is the shared engine under both proxies and the user's own device:
// a cloud pre-downloader VM, a smart AP and a direct download run exactly
// this loop, differing only in their rate ceiling (line rate, and for an AP
// the storage write ceiling). The task:
//   - opens a network flow capped at min(source rate, rate ceiling);
//   - keeps one event armed at the earliest time anything can change:
//     the source's next change as it reports it (a seedless swarm's next
//     seed arrival; for a seeded swarm, the first 5-minute sample after
//     its next birth or death), a fatal source break, the hard timeout,
//     and — while the flow cannot move — the stagnation deadline. A
//     server source's constant rate needs no sampling at all;
//   - fails the attempt if progress stagnates for kStagnationTimeout —
//     Xuanfeng's rule (§4.1): a transfer that stalls for an hour will
//     almost never finish, so give up and notify the user — or once it
//     has run for kHardTimeout;
//   - fails at the exact time of a fatal source error (non-resumable HTTP
//     drop);
//   - reports a DownloadResult either way.
//
// Lifecycle: the done callback is moved out of the task and invoked as the
// last statement of the task's own code, so the owner may destroy the task
// inside it. Destroying a running task tears it down silently.
#pragma once

#include <functional>
#include <memory>

#include "net/network.h"
#include "proto/source.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/units.h"

namespace odr::proto {

struct DownloadResult {
  bool success = false;
  FailureCause cause = FailureCause::kNone;
  SimTime started_at = 0;
  SimTime finished_at = 0;
  Bytes file_size = 0;
  Bytes bytes_downloaded = 0;
  // Total network traffic including protocol/tit-for-tat overhead and any
  // bytes discarded by failed checksum verifications.
  Bytes traffic_bytes = 0;
  Rate average_rate = 0.0;  // file bytes over wall time (0 for failures at 0%)
  Rate peak_rate = 0.0;
  // Completions discarded because the MD5 of the received bytes mismatched
  // (injected corruption); each one restarted the transfer.
  std::uint32_t checksum_retries = 0;

  SimTime duration() const { return finished_at - started_at; }
};

class DownloadTask {
 public:
  // Xuanfeng's failure rule (§4.1) is a property of the engine, the same
  // for every owner.
  static constexpr SimTime kStagnationTimeout = kHour;
  // The trace window bounds any attempt at one week.
  static constexpr SimTime kHardTimeout = kWeek;
  // A corrupted completion is retried — P2P sources carry per-piece hashes
  // so only the bad pieces are re-fetched (resume); HTTP/FTP have no piece
  // hashes, so the whole file is re-downloaded (restart) — up to this many
  // times, then the attempt fails with FailureCause::kChecksumMismatch.
  static constexpr std::uint32_t kMaxChecksumRetries = 2;

  struct Config {
    // The owner's ceiling: the downloader's line rate, and for a smart AP
    // also the storage device's effective write rate.
    Rate rate_ceiling = net::kUnlimitedRate;
    // Fault injection: probability that a completed transfer fails MD5
    // verification (see kMaxChecksumRetries).
    double corruption_prob = 0.0;
    // Observability-only task identity: the catalog file index this task
    // is fetching, used to attribute checksum retries to waiting task
    // spans. NOT serialized (derived-state contract: a restored task
    // simply stops noting retries), never read by simulation logic.
    std::uint64_t obs_file_index = kNoObsFile;
    static constexpr std::uint64_t kNoObsFile = ~0ull;
  };

  using DoneFn = std::function<void(const DownloadResult&)>;

  DownloadTask(sim::Simulator& sim, net::Network& net,
               std::unique_ptr<Source> source, Bytes file_size, Config config,
               DoneFn on_done);
  ~DownloadTask();

  DownloadTask(const DownloadTask&) = delete;
  DownloadTask& operator=(const DownloadTask&) = delete;

  // Begins the transfer; `rng` must outlive the task.
  void start(Rng& rng);

  // Cancels a running task; reports FailureCause::kAborted.
  void abort();

  // Fails a running task with an externally determined cause (e.g. a
  // downloader-side crash injected by the fault layer or the smart-AP bug
  // model).
  void fail_externally(proto::FailureCause cause);

  bool running() const { return running_; }
  Bytes bytes_done();
  const Source& source() const { return *source_; }
  // True while the task's event is armed (audit accounting).
  bool event_pending() const { return event_.id != sim::kInvalidEvent; }
  // The active flow id, or net::kInvalidFlow between rounds.
  net::FlowId flow_id() const { return flow_.id; }

  // --- snapshot support ---------------------------------------------------
  //
  // save() serializes the source, config, and all mutable fields including
  // the flow and event ids. restore() rebuilds the task *mid-flight*:
  // it does not call start(), it re-claims the task's event from the
  // simulator's rearm table and re-attaches the flow completion callback.
  // The owner supplies the done callback (a closure into the owner) and
  // the rng the original task was started with.
  void save(snapshot::SnapshotWriter& w) const;
  static std::unique_ptr<DownloadTask> restore(sim::Simulator& sim,
                                               net::Network& net,
                                               snapshot::SnapshotReader& r,
                                               const SourceParams& sources,
                                               DoneFn on_done, Rng& rng);

 private:
  void on_event();
  // Arms the task's one event at the earliest time it must act.
  void schedule_next();
  void on_flow_complete();
  void finish(bool success, FailureCause cause);
  Rate effective_cap() const;
  void open_round(Bytes bytes);

  sim::Simulator& sim_;
  net::Network& net_;
  std::unique_ptr<Source> source_;
  Bytes file_size_;
  Config config_;
  DoneFn on_done_;
  Rng* rng_ = nullptr;

  net::FlowHandle flow_;
  sim::EventHandle event_;
  SimTime started_at_ = 0;
  SimTime last_advance_ = 0;  // when the source was last advanced
  double last_progress_bytes_ = -1.0;
  SimTime last_progress_at_ = 0;
  Rate peak_rate_ = 0.0;
  // Checksum-verification retry state: the size of the in-flight round
  // (the network retires a flow before its completion callback runs, so
  // the task must remember what it asked for), bytes verified good in
  // earlier rounds, bytes discarded as corrupt, and rounds used so far.
  Bytes round_bytes_ = 0;
  Bytes verified_bytes_ = 0;
  Bytes discarded_bytes_ = 0;
  std::uint32_t checksum_retries_ = 0;
  // Beside the 4-byte counter, the flags keep a task at 200 bytes: inside
  // glibc's 208-byte chunk, where it sat before its event and flow became
  // 16-byte handles. The next chunk up moved checkpoint_week's peak RSS
  // by 7%.
  bool running_ = false;
  bool done_ = false;
};
static_assert(sizeof(DownloadTask) <= 200);

}  // namespace odr::proto
