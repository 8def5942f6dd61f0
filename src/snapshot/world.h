// CloudWorld: the §4 cloud week, the only driver that builds one.
//
// analysis::run_cloud_replay and run_cloud_replay_from_trace (declared at
// the bottom of this header) are thin wrappers: build a world with no
// checkpoint tick, run it, finalize it. The world holds every piece of
// experiment state as an inspectable member rather than in stack locals
// and lambda captures, which adds the ability to
//
//   - write a CRC-protected checkpoint of the ENTIRE mutable world
//     (simulator queue, network flows, cloud, fault injector, the next
//     arrival, accumulated outcomes) at any event boundary, and
//   - reconstruct a world from such a checkpoint and resume it to a final
//     state bit-identical to the uninterrupted run.
//
// Restore works by replaying the deterministic build (catalog, users,
// workload, topology — all pure functions of the config) and then loading
// only the mutable state over it, so only a world over the generated
// workload restores; a trace-built world serves fresh runs. The simulator
// parks every checkpointed event in a rearm table; each component reclaims
// its own events, and any unclaimed event fails the restore loudly (see
// sim::Simulator::rearm).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/replay.h"
#include "cloud/xuanfeng.h"
#include "fault/injector.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "snapshot/state_hash.h"
#include "util/rng.h"
#include "util/units.h"
#include "workload/catalog.h"
#include "workload/trace.h"
#include "workload/user_model.h"

namespace odr::snapshot {

class SnapshotWriter;

struct WorldOptions {
  // Checkpoint file target; empty disables file writes (checkpoint events
  // still fire so the event stream is identical either way).
  std::string checkpoint_path;
  // Simulated time between checkpoints; 0 disables the periodic tick
  // entirely. Ticks never change outcomes, but they take event ids, so
  // event counts and state-hash journals are only comparable between runs
  // with the same period.
  SimTime checkpoint_period = 12 * kHour;
  // Run the invariant auditor at every checkpoint boundary and throw
  // SnapshotError on any violation.
  bool audit_at_checkpoint = true;
  // Event-count cadence for in-run state hashing (see state_hash.h):
  // record a StateHash after every N executed events. 0 (the default)
  // disables hashing entirely — run() then makes one engine call with zero
  // added allocations and zero behavior change (gated by
  // bench/obs_overhead).
  std::uint64_t hash_every_events = 0;
  // Also record a StateHash at every checkpoint tick (sim-time cadence).
  // Only meaningful when hashing is on via hash_every_events, or on its
  // own for coarse sim-time-aligned journals.
  bool hash_at_checkpoint = false;
};

class CloudWorld {
 public:
  // Fresh world: deterministic build + arrival schedule + checkpoint tick.
  CloudWorld(const analysis::ExperimentConfig& config, WorldOptions options);

  // Fresh world over an external workload trace (e.g. loaded from the CSVs
  // `generate_traces` writes), in any record order: it is replayed sorted
  // by (request_time, task_id). The catalog and user population are
  // reconstructed from the sorted records: file metadata from the
  // first record per file (popularity = measured weekly count), users from
  // their recorded ISP/bandwidth (unreported bandwidths are drawn from the
  // configured distribution). Cloud, source and fault parameters come from
  // `config`; its workload-generation fields are ignored. finalize()
  // reports the last arrival + 1 day as the duration. Such a world takes no
  // WorldOptions: it never ticks, checkpoints, audits or hashes, because a
  // checkpoint of it could not be restored (the restore constructor rebuilds
  // the generated workload, and config_fingerprint does not cover a trace).
  CloudWorld(const analysis::ExperimentConfig& config,
             std::vector<workload::WorkloadRecord> trace);

  // Restored world (generated workload only): deterministic build, then
  // the checkpoint buffer is loaded over it. Throws SnapshotError (leaving
  // no half-loaded object — construction fails) on any corruption,
  // version, or config mismatch.
  CloudWorld(const analysis::ExperimentConfig& config, WorldOptions options,
             const std::string& buffer);

  CloudWorld(const CloudWorld&) = delete;
  CloudWorld& operator=(const CloudWorld&) = delete;

  // Runs the event loop until it drains; `max_events` bounds the run (used
  // by the kill harness to stop mid-week). Returns events executed.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  // Post-run popularity reclassification + counter harvest. The rvalue
  // overload moves the request and outcome tables out instead of copying
  // them, for callers done with the world.
  analysis::CloudReplayResult finalize() const&;
  analysis::CloudReplayResult finalize() &&;

  // Serializes the full mutable world state. Read-only: a checkpoint never
  // perturbs the run it observes.
  std::string save_to_buffer() const;

  // Granular savers for StateHasher (the full checkpoint composes the
  // same bytes): the fault-injector state and the world-level state
  // (outcomes, next arrival, checkpoint tick).
  void save_fault_state(SnapshotWriter& w) const;
  void save_world_state(SnapshotWriter& w) const;

  // StateHashes recorded so far (empty unless hashing is enabled).
  const std::vector<StateHash>& hashes() const { return hashes_; }
  // Digest the world right now, independent of cadence.
  StateHash hash_now() const;

  // --- introspection (auditor, tests, harness) ----------------------------
  const sim::Simulator& sim() const { return sim_; }
  const net::Network& net() const { return net_; }
  const cloud::XuanfengCloud& cloud() const { return *cloud_; }
  const fault::FaultInjector* injector() const {
    return injector_ ? &*injector_ : nullptr;
  }
  const analysis::ExperimentConfig& config() const { return config_; }
  const WorldOptions& options() const { return options_; }
  const std::vector<workload::WorkloadRecord>& requests() const {
    return requests_;
  }
  const std::vector<cloud::TaskOutcome>& outcomes() const { return outcomes_; }
  std::size_t pending_arrival_count() const {
    return next_arrival_ < requests_.size() ? 1 : 0;
  }
  bool checkpoint_armed() const { return checkpoint_event_ != sim::kInvalidEvent; }
  std::uint64_t checkpoints_written() const { return checkpoints_written_; }

 private:
  // The deterministic build over the generated workload: identical between
  // fresh construction and restore.
  void build();
  // The build steps both workload sources share, in rng draw order: the
  // cloud and its warm-up over `warm_requests` weekly requests, then (once
  // requests_ is final) the fault injector, the arrivals and the
  // observability wiring. schedule_week returns the last arrival time.
  void start_cloud(Rng& rng, std::size_t warm_requests);
  SimTime schedule_week(Rng& rng);
  void arm_checkpoint_tick();
  analysis::CloudReplayResult harvest(
      std::vector<workload::WorkloadRecord> requests,
      std::vector<cloud::TaskOutcome> outcomes) const;
  void on_arrival();
  void checkpoint_tick();
  void record_hash();
  void load_from(const std::string& buffer);
  cloud::XuanfengCloud::OutcomeFn outcome_sink();
  std::uint64_t config_fingerprint() const;

  analysis::ExperimentConfig config_;
  WorldOptions options_;

  sim::Simulator sim_;
  net::Network net_;
  std::shared_ptr<workload::Catalog> catalog_;
  std::shared_ptr<workload::UserPopulation> users_;
  std::optional<cloud::XuanfengCloud> cloud_;
  std::optional<fault::FaultInjector> injector_;

  std::vector<workload::WorkloadRecord> requests_;
  // The week's length as finalize() reports it.
  SimTime duration_ = 0;
  // requests_[i] arrives as reserved event first_arrival_ + i; only
  // requests_[next_arrival_] is queued, and that index survives a restore.
  sim::EventId first_arrival_ = sim::kInvalidEvent;
  std::size_t next_arrival_ = 0;
  std::vector<cloud::TaskOutcome> outcomes_;

  sim::EventId checkpoint_event_ = sim::kInvalidEvent;
  // Deliberately NOT serialized: a resumed run re-counts from zero, and
  // excluding it keeps baseline and resumed checkpoints byte-comparable.
  std::uint64_t checkpoints_written_ = 0;
  // In-run state hashes (triage artifacts, never serialized — a restored
  // run re-hashes from its resume point).
  std::vector<StateHash> hashes_;
  // The debug_burn_rng_at_event injection fired (it fires at most once).
  bool rng_burned_ = false;
};

}  // namespace odr::snapshot

namespace odr::analysis {

// The §4 drivers. They live beside CloudWorld, not in analysis/replay.h,
// because the world runs them and odr_snapshot sits above odr_analysis.

// The generated week: a CloudWorld with no checkpoint tick, run to the
// end and finalized.
CloudReplayResult run_cloud_replay(const ExperimentConfig& config);

// The same over an external trace (see CloudWorld's trace constructor).
CloudReplayResult run_cloud_replay_from_trace(
    std::vector<workload::WorkloadRecord> requests,
    const ExperimentConfig& config);

}  // namespace odr::analysis
