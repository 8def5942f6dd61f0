// First-divergence bisection between two runs (see DESIGN.md §12).
//
// Given two experiment configs that were supposed to be bit-identical (or
// one config plus a journal recorded from an earlier run), find the FIRST
// event after which their states differ:
//
//   phase 1  run both configs with event-count hash cadence, collecting
//            one StateHash per cadence point (skipped for sides supplied
//            as recorded journals);
//   phase 2  binary-search the aligned hash timelines for the first
//            divergent checkpoint — O(log n) hash comparisons, counted
//            and reported;
//   phase 3  rebuild both worlds, run each to the last agreeing
//            checkpoint, then step the bracketing window one event at a
//            time, hashing after every event, until the hashes split.
//
// The report names the exact first divergent event — its (time, id) pair
// and ordinal — plus the subsystems whose sub-hashes broke, which
// is normally enough to route the failure (rng ⇒ an extra/missing draw;
// events ⇒ a scheduling-order change; flows ⇒ a network-model edit, …).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/failure_kind.h"
#include "analysis/replay.h"
#include "obs/hash_journal.h"
#include "snapshot/state_hash.h"
#include "util/units.h"

namespace odr::snapshot {

struct BisectOptions {
  // Hash cadence for the phase-1 runs. Smaller = tighter phase-3 windows
  // but more hashing work; the default keeps phase 3 under a thousand
  // single-event steps at any divisor the benches use.
  std::uint64_t hash_every_events = 500;
  // Safety limit on either run (SafetyLimit in the report when hit).
  std::uint64_t max_events = UINT64_MAX;
};

struct BisectReport {
  bool diverged = false;
  analysis::DivergenceKind kind = analysis::DivergenceKind::kNone;

  // Phase 2: index of the first divergent journal record, and the number
  // of record comparisons the binary search performed (the O(log n) gate).
  std::uint64_t first_divergent_checkpoint = 0;
  std::uint64_t hash_comparisons = 0;
  std::uint64_t journal_records = 0;

  // Phase 3: the first divergent event.
  std::uint64_t first_divergent_event = 0;  // ordinal (executed count)
  SimTime event_time = 0;
  std::uint64_t event_id = 0;
  std::vector<Subsystem> subsystems;  // whose sub-hashes broke first

  std::string detail;  // human-readable one-paragraph summary
};

// Both sides run live from configs.
BisectReport bisect_divergence(const analysis::ExperimentConfig& a,
                               const analysis::ExperimentConfig& b,
                               const BisectOptions& options = {});

// Side A runs live; side B is a journal recorded earlier (its cadence
// overrides options.hash_every_events so the timelines align). Phase 3
// replays side B from `config_b`, which must be the config the journal
// was recorded under: a journal whose seed is not `config_b`'s is refused
// with a SnapshotError (kUsage) before anything runs.
BisectReport bisect_against_journal(const analysis::ExperimentConfig& a,
                                    const analysis::ExperimentConfig& b,
                                    const obs::HashJournal& recorded_b,
                                    const BisectOptions& options = {});

// Pure phase 2 over two recorded journals: no replay, so the report stops
// at the first divergent checkpoint (first_divergent_event is the upper
// bound of the bracketing window, not the exact event). Journals recorded
// at different cadences hash different event counts and are refused with
// a SnapshotError (kUsage).
BisectReport bisect_journals(const obs::HashJournal& a,
                             const obs::HashJournal& b);

}  // namespace odr::snapshot
