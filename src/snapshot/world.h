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
};

class CloudWorld {
 public:
  // Fresh world: deterministic build + arrival schedule + checkpoint tick.
  CloudWorld(const analysis::ExperimentConfig& config, WorldOptions options);

  // Fresh world over an external workload trace (e.g. read from the CSVs
  // `generate_traces` writes), in any request order: it is replayed sorted
  // by (request_time, task_id). The catalog and user population are
  // rebuilt for the files and users the requests name: file metadata from
  // `trace.files` (popularity = measured weekly count), users from their
  // recorded ISP, ip and bandwidth (an unreported bandwidth is drawn from
  // the configured distribution and stays unreported). Cloud, source and
  // fault parameters come from `config`; its workload-generation fields are
  // ignored. finalize() reports the last arrival + 1 day as the duration.
  // Such a world takes no WorldOptions: it never ticks, checkpoints, audits
  // or hashes, because a checkpoint of it could not be restored (the
  // restore constructor rebuilds the generated workload, and
  // config_fingerprint does not cover a trace).
  CloudWorld(const analysis::ExperimentConfig& config, workload::Trace trace);

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

  // Serializes the full mutable world state: the meta section, one
  // section per snapshot::Subsystem (format.h), then the outcome log and
  // the cache window (the content DB's records, the pool's entries). A
  // checkpoint never perturbs the run it observes. It extends the running
  // log CRC, which is cached state, so neither it nor hash_now() may run
  // concurrently with another call on the same world.
  std::string save_to_buffer() const;

  // The debug_burn_rng_at_event injection, if it is due (that many events
  // have run) and has not fired: one extra draw from the cloud's rng
  // stream. run() calls it before each chunk of events; a caller may call
  // it between run() calls to see the burned state before the next event.
  // A checkpoint restores the burn from its event count alone, so
  // save_to_buffer() refuses the one state it cannot name: burned, with
  // the next event not yet run.
  void burn_rng_if_due();

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
  const std::vector<workload::TaskOutcome>& outcomes() const {
    return outcomes_;
  }
  std::size_t pending_arrival_count() const {
    return next_arrival_ < requests_.size() ? 1 : 0;
  }
  bool checkpoint_armed() const { return checkpoint_event_ != sim::kInvalidEvent; }
  std::uint64_t checkpoints_written() const { return checkpoints_written_; }

 private:
  // The deterministic build over the generated workload: identical between
  // fresh construction and restore, except that a restore skips the
  // warm-up (`warm` false), whose pool and content-DB state load replaces.
  void build(bool warm);
  // The build steps both workload sources share, in rng draw order: the
  // cloud, whose one sink finishes each task's span and logs its outcome
  // (a restore builds it the same way, so load rebinds nothing), and its
  // warm-up over `warm_requests` weekly requests (0 skips
  // it; the warm-up's rng is forked either way), then (once requests_ is
  // final) the fault injector, the arrivals and the observability wiring.
  // schedule_week returns the last arrival time.
  void start_cloud(Rng& rng, std::size_t warm_requests);
  SimTime schedule_week(Rng& rng);
  void arm_checkpoint_tick();
  analysis::CloudReplayResult harvest(
      std::vector<workload::WorkloadRecord> requests,
      std::vector<workload::TaskOutcome> outcomes) const;
  void on_arrival();
  void checkpoint_tick();
  // The nine Subsystem sections, into `w`; StateHasher reads their CRCs.
  friend struct StateHasher;
  void save_subsystems(SnapshotWriter& w) const;
  // The running CRC of the outcome log, first extended over the outcomes
  // recorded since the last call.
  std::uint32_t log_crc() const;
  void load_from(const std::string& buffer);
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
  std::vector<workload::TaskOutcome> outcomes_;
  // CRC32C of the serialized records of outcomes_[0, logged_). The world
  // section stores it in place of the records, and a checkpoint's log
  // section must match it. log_crc() extends it lazily, so a week that
  // never hashes or saves never serializes an outcome.
  mutable std::uint32_t log_crc_ = 0;
  mutable std::size_t logged_ = 0;
  // Bytes of the last checkpoint saved or restored: the next save reserves
  // its buffer from it. Capacity no byte reaches is never touched.
  mutable std::size_t last_save_bytes_ = 0;

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
CloudReplayResult run_cloud_replay_from_trace(workload::Trace trace,
                                              const ExperimentConfig& config);

}  // namespace odr::analysis
