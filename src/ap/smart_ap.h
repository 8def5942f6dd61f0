// SmartAp: an OpenWrt home router that pre-downloads on request.
//
// A smart AP runs the same DownloadTask engine as a cloud pre-downloader
// (both use wget/aria2-class clients, §2.2), with the same §4.1 give-up
// rule, but differs in what throttles it:
//   - line rate: the household's access bandwidth (kLineRate, the §5.1
//     ADSL uplink), not a datacenter link; in the §5.1 replays further
//     restricted to the sampled user's recorded bandwidth;
//   - sink rate: the storage device + filesystem write ceiling of Table 2
//     (Bottleneck 4);
//   - reliability: the paper attributes ~4% of AP failures to firmware
//     bugs; injected here with a small per-task probability.
//
// Fetching from an AP happens over the LAN at 8-12 MBps, which never
// bottlenecks (§5.2), so fetch is modeled as a closed-form delay.
//
// Fault tolerance: the fault layer can crash the whole router. A crash
// interrupts every running pre-download; after kRebootDelay the AP resumes
// them. P2P clients persist piece state to the USB disk, so a resumed
// BitTorrent/eMule task keeps its partial bytes; plain HTTP/FTP fetches
// restart from zero. A task survives at most kMaxCrashResumes crashes
// before it is reported failed with FailureCause::kCrash.
//
// The AP answers one owner: it is built with one sink, and every
// pre-download reports its result there once, under the id its caller gave
// predownload(). A finished task is moved out of the task table in its own
// engine callback and dies when that callback returns. The §5 AP replays
// run a whole week in one process and never checkpoint an AP.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "ap/ap_models.h"
#include "ap/storage_device.h"
#include "net/network.h"
#include "proto/download.h"
#include "proto/source.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/file.h"

namespace odr::ap {

struct SmartApConfig {
  ApHardware hardware = kNewifi;
  DeviceType device = DeviceType::kUsbFlash;
  Filesystem filesystem = Filesystem::kNtfs;
  double bug_failure_prob = 0.012;  // ~4% of the 16.8% failures (§5.2)
};

class SmartAp {
 public:
  // The §5.1 ADSL uplink.
  static constexpr Rate kLineRate = mbps_to_rate(20.0);
  static constexpr SimTime kRebootDelay = 45 * kSec;
  // Crashes a single task may survive.
  static constexpr std::uint32_t kMaxCrashResumes = 5;

  // The sink: a pre-download's id and its crash-stitched result.
  using DoneFn =
      std::function<void(std::uint64_t id, const proto::DownloadResult&)>;

  // `done` hears every pre-download once; an empty one discards them.
  SmartAp(sim::Simulator& sim, net::Network& net, SmartApConfig config,
          const proto::SourceParams& sources, Rng& rng, DoneFn done);

  // Starts pre-download `id` of `file`, additionally throttled to
  // `rate_restriction` (the replayed user's recorded access bandwidth;
  // pass net::kUnlimitedRate for an unrestricted run as in Table 2). The
  // id is the caller's and must not be in flight here already.
  void predownload(std::uint64_t id, const workload::FileInfo& file,
                   Rate rate_restriction);

  // Component-scoped cancel fast path (hedged loser-cancel): aborts the
  // pre-download `id` whether it is running or queued behind a reboot.
  // The sink hears it synchronously with FailureCause::kAborted. Returns
  // the bytes the task had already pulled (wasted work); 0 when the id is
  // not in flight (already finished: no-op).
  Bytes cancel(std::uint64_t id);

  // Fault-layer hook: the router dies now and reboots after kRebootDelay,
  // resuming interrupted tasks (see file comment).
  void crash();

  // Effective write ceiling of the configured storage (Bottleneck 4).
  Rate storage_write_ceiling() const;
  // iowait ratio while writing at `rate`.
  double iowait_at(Rate rate) const;

  // LAN fetch duration for `bytes` (uniform 8-12 MBps WiFi).
  SimTime lan_fetch_duration(Bytes bytes, Rng& rng) const;

  std::size_t active() const { return tasks_.size(); }
  bool rebooting() const { return rebooting_; }
  std::uint64_t crash_count() const { return crashes_; }
  std::uint64_t resume_count() const { return resumes_; }
  const SmartApConfig& config() const { return config_; }

 private:
  struct Running {
    std::unique_ptr<proto::DownloadTask> task;
    sim::EventHandle bug_event;
    // The four file fields the task reads, and crash-recovery bookkeeping.
    workload::FileIndex file = workload::kInvalidFile;
    proto::Protocol protocol = proto::Protocol::kBitTorrent;
    Bytes size = 0;
    double expected_weekly_requests = 0.0;
    Rate rate_restriction = net::kUnlimitedRate;
    SimTime original_start = 0;
    Bytes preserved_bytes = 0;  // verified on disk before the last crash
    Bytes prior_traffic = 0;    // wire bytes spent in interrupted attempts
    std::uint32_t crash_resumes = 0;
  };

  void start_task(std::uint64_t id, Running r);
  void on_done(std::uint64_t id, const proto::DownloadResult& result);
  // Reports `run`'s end before it ran again: a crash-doomed or cancelled
  // queued task, failed with `cause` now.
  void report_unstarted(std::uint64_t id, const Running& run,
                        proto::FailureCause cause);
  void finish_reboot();

  sim::Simulator& sim_;
  net::Network& net_;
  SmartApConfig config_;
  proto::SourceParams sources_;
  Rng rng_;
  IoProfile io_;
  DoneFn done_;

  std::unordered_map<std::uint64_t, Running> tasks_;
  bool rebooting_ = false;
  std::uint64_t crashes_ = 0;
  std::uint64_t resumes_ = 0;
};

}  // namespace odr::ap
