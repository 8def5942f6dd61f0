// FaultInjector: executes a FaultPlan against live simulation components.
//
// The injector is attached to whichever components an experiment has —
// the cloud's VM pool, upload scheduler, storage pool, the network, any
// number of smart APs — then load()ed with a plan. Every fault becomes
// ordinary simulator events (activation, periodic crash ticks, flap
// toggles, recovery), so fault timing composes deterministically with the
// rest of the event stream: the same seed and plan always yield the same
// run, byte for byte.
//
// Crash-style faults (kVmCrash, kApCrash) are sampled: every
// kCrashTickPeriod inside the window, each active task / AP crashes
// independently with probability rate * tick_hours. The injector forks its
// own Rng stream so these draws never perturb the workload's streams.
//
// Every pending fault event is tracked as (spec index, phase) — not a
// captured closure — so an active plan survives checkpoint/restore
// mid-window; see save_snapshot()/load_snapshot().
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ap/smart_ap.h"
#include "cloud/xuanfeng.h"
#include "fault/fault_plan.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace odr::snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace odr::snapshot

namespace odr::fault {

class FaultInjector {
 public:
  struct KindStats {
    std::uint64_t fired = 0;      // activations (per crash for crash kinds)
    std::uint64_t recovered = 0;  // windows that ended
  };

  // Sampling cadence for crash-style faults.
  static constexpr SimTime kCrashTickPeriod = 5 * kMinute;

  FaultInjector(sim::Simulator& sim, Rng& rng);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- attachment (call before load; any subset may be attached) ----------
  void attach_predownloaders(cloud::PreDownloaderPool* pool) { pool_ = pool; }
  void attach_uploads(cloud::UploadScheduler* uploads) { uploads_ = uploads; }
  void attach_storage(cloud::StoragePool* storage) { storage_ = storage; }
  void attach_network(net::Network* net) { net_ = net; }
  void attach_ap(ap::SmartAp* ap) { aps_.push_back(ap); }
  // Convenience: attaches every cloud-side component at once.
  void attach_cloud(cloud::XuanfengCloud& cloud, net::Network& net);

  // Schedules every fault in `plan`. May be called once per injector.
  void load(const FaultPlan& plan);

  const KindStats& stats(FaultKind kind) const {
    return stats_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t total_fired() const;

  // Fault events currently armed in the simulator (audit accounting).
  std::size_t pending_event_count() const { return pending_.size(); }

  // --- snapshot support -----------------------------------------------------
  //
  // save_snapshot() serializes the rng, stats, saved link capacities, and
  // every pending fault event as (spec index, phase). load_snapshot()
  // requires that the restoring process already called load() with the
  // SAME plan (verified field by field), discards the freshly scheduled
  // activations, and re-arms exactly the checkpointed events.
  void save_snapshot(snapshot::SnapshotWriter& w) const;
  void load_snapshot(snapshot::SnapshotReader& r);

 private:
  enum Phase : std::uint8_t {
    kPhaseActivate = 0,
    kPhaseRecover = 1,
    kPhaseCrashTick = 2,
    kPhaseFlap = 3,
  };
  struct PendingEvent {
    sim::EventId event = sim::kInvalidEvent;
    bool degraded = false;  // next flap_toggle argument (kPhaseFlap only)
  };

  void arm_at(std::size_t index, Phase phase, SimTime at);
  void arm_after(std::size_t index, Phase phase, SimTime delay,
                 bool degraded = false);
  void fire(std::size_t index, Phase phase);
  void activate(std::size_t index, const FaultSpec& spec);
  void recover(const FaultSpec& spec);
  void crash_tick(std::size_t index, const FaultSpec& spec);
  void flap_toggle(std::size_t index, const FaultSpec& spec, bool degraded);

  KindStats& mutable_stats(FaultKind kind) {
    return stats_[static_cast<std::size_t>(kind)];
  }

  sim::Simulator& sim_;
  Rng rng_;

  cloud::PreDownloaderPool* pool_ = nullptr;
  cloud::UploadScheduler* uploads_ = nullptr;
  cloud::StoragePool* storage_ = nullptr;
  net::Network* net_ = nullptr;
  std::vector<ap::SmartAp*> aps_;

  FaultPlan plan_;
  // Armed fault events keyed by (spec index, phase); a spec has at most
  // one pending event per phase, so the key is unique.
  std::map<std::pair<std::size_t, std::uint8_t>, PendingEvent> pending_;

  // Pre-fault capacities of links we zeroed or degraded, for recovery.
  std::unordered_map<net::LinkId, Rate> saved_capacity_;

  std::array<KindStats, kFaultKindCount> stats_{};
};

}  // namespace odr::fault
