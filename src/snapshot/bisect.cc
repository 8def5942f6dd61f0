#include "snapshot/bisect.h"

#include <memory>
#include <sstream>
#include <utility>

#include "snapshot/world.h"

namespace odr::snapshot {
namespace {

// Worlds built for bisection share one fixed option set so the two sides
// (and a phase-3 rebuild of a phase-1 run) see identical event streams:
// the periodic checkpoint tick fires on the default cadence but never
// audits or writes files, and hashing is set per phase.
WorldOptions bisect_world_options(std::uint64_t hash_every) {
  WorldOptions o;
  o.audit_at_checkpoint = false;
  o.hash_every_events = hash_every;
  return o;
}

struct JournalRun {
  obs::HashJournal journal;
  bool hit_safety_limit = false;
};

JournalRun record_run(const analysis::ExperimentConfig& config,
                      const BisectOptions& options) {
  CloudWorld world(config, bisect_world_options(options.hash_every_events));
  world.run(options.max_events);
  JournalRun out;
  out.hit_safety_limit = world.sim().has_pending();
  out.journal.cadence_events = options.hash_every_events;
  out.journal.seed = config.seed;
  out.journal.records = world.hashes();
  return out;
}

// Phase 2: binary search for the first index at which the two record
// timelines disagree. Relies on divergence being monotone — once two
// deterministic runs differ they never re-converge — which makes the
// predicate "records[i] differ" sorted (all false, then all true).
struct Phase2 {
  bool diverged = false;
  bool in_tail = false;  // diverged after the last comparable record
  std::uint64_t first_index = 0;
  std::uint64_t comparisons = 0;
};

Phase2 search_first_divergence(const std::vector<StateHash>& a,
                               const std::vector<StateHash>& b) {
  Phase2 out;
  const std::size_t m = std::min(a.size(), b.size());
  if (m == 0) {
    out.diverged = a.size() != b.size();
    out.in_tail = out.diverged;
    return out;
  }
  auto differ = [&](std::size_t i) {
    ++out.comparisons;
    return !(a[i] == b[i]);
  };
  if (!differ(m - 1)) {
    // The whole comparable prefix agrees; any divergence is in the tail
    // (one run produced more records than the other).
    out.diverged = a.size() != b.size();
    out.in_tail = out.diverged;
    out.first_index = m;  // window starts after the last common record
    return out;
  }
  std::size_t lo = 0, hi = m - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (differ(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  out.diverged = true;
  out.first_index = lo;
  return out;
}

void describe(BisectReport& r) {
  std::ostringstream os;
  if (!r.diverged) {
    os << "no divergence: " << r.journal_records
       << " hash records agree end to end (" << r.hash_comparisons
       << " comparisons)";
    r.detail = os.str();
    return;
  }
  os << "first divergent checkpoint: record " << r.first_divergent_checkpoint
     << " of " << r.journal_records << " (" << r.hash_comparisons
     << " hash comparisons)";
  if (r.first_divergent_event != 0) {
    os << "; first divergent event: #" << r.first_divergent_event
       << " (time " << r.event_time << ", id " << r.event_id << ")";
    if (!r.subsystems.empty()) {
      os << "; divergent subsystem(s):";
      for (Subsystem s : r.subsystems) os << ' ' << subsystem_name(s);
    }
  }
  r.detail = os.str();
}

// Phase 3: rebuild both worlds, advance each to the start of the
// bracketing window, then step one event at a time comparing full state
// hashes. `window_start`/`window_end` are executed-event ordinals.
void replay_window(const analysis::ExperimentConfig& config_a,
                   const analysis::ExperimentConfig& config_b,
                   std::uint64_t window_start, std::uint64_t window_end,
                   BisectReport& report) {
  // Hashing is off in the replay worlds (cadence 0): the bisector hashes
  // explicitly after every stepped event instead.
  CloudWorld a(config_a, bisect_world_options(0));
  CloudWorld b(config_b, bisect_world_options(0));
  a.run(window_start);
  b.run(window_start);
  while (a.sim().executed_count() < window_end ||
         b.sim().executed_count() < window_end) {
    const std::uint64_t na = a.run(1);
    const std::uint64_t nb = b.run(1);
    if (na == 0 && nb == 0) break;  // both drained inside the window
    const StateHash ha = a.hash_now();
    const StateHash hb = b.hash_now();
    if (ha == hb) continue;
    report.first_divergent_event = a.sim().executed_count();
    report.event_time = a.sim().last_event_time();
    report.event_id = a.sim().last_event_id();
    report.subsystems = divergent_subsystems(ha, hb);
    return;
  }
  // The checkpoint hashes said "divergent" but the stepwise replay never
  // reproduced it — the recorded journal must come from a different build
  // or config. Leave the event fields zero; detail explains the window.
  report.first_divergent_event = 0;
}

BisectReport bisect_recorded(const analysis::ExperimentConfig& config_a,
                             const analysis::ExperimentConfig& config_b,
                             const obs::HashJournal& ja,
                             const obs::HashJournal& jb, bool can_replay,
                             bool hit_safety_limit,
                             const BisectOptions& options) {
  BisectReport report;
  report.journal_records = std::min(ja.records.size(), jb.records.size());

  const Phase2 p2 = search_first_divergence(ja.records, jb.records);
  report.hash_comparisons = p2.comparisons;
  if (!p2.diverged) {
    if (hit_safety_limit) {
      report.diverged = false;
      report.kind = analysis::DivergenceKind::kSafetyLimit;
      report.detail = "safety limit (max_events=" +
                      std::to_string(options.max_events) +
                      ") hit before the queue drained — runs agree so far "
                      "but are not complete";
      return report;
    }
    report.kind = analysis::DivergenceKind::kNone;
    describe(report);
    return report;
  }

  report.diverged = true;
  report.kind = analysis::DivergenceKind::kHashMismatch;
  report.first_divergent_checkpoint = p2.first_index;

  // The bracketing window: from the last agreeing record (exclusive) to
  // the first divergent one (inclusive). A tail divergence opens the
  // window at the final common record and runs to the longer journal's
  // end.
  std::uint64_t window_start = 0;
  std::uint64_t window_end = 0;
  if (p2.in_tail) {
    const auto& longer = ja.records.size() >= jb.records.size() ? ja : jb;
    window_start =
        p2.first_index == 0 ? 0 : longer.records[p2.first_index - 1].executed;
    window_end = longer.records.back().executed;
  } else {
    window_start = p2.first_index == 0
                       ? 0
                       : ja.records[p2.first_index - 1].executed;
    window_end = ja.records[p2.first_index].executed;
  }

  if (can_replay) {
    replay_window(config_a, config_b, window_start, window_end, report);
  } else {
    report.first_divergent_event = 0;
  }
  describe(report);
  if (report.diverged && report.first_divergent_event == 0) {
    report.detail += "; window (" + std::to_string(window_start) + ", " +
                     std::to_string(window_end) +
                     "] was not replayed event-by-event" +
                     (can_replay ? " — stepwise replay did not reproduce the "
                                   "recorded divergence (journal from a "
                                   "different build?)"
                                 : " (journal-only mode)");
  }
  return report;
}

}  // namespace

BisectReport bisect_divergence(const analysis::ExperimentConfig& a,
                               const analysis::ExperimentConfig& b,
                               const BisectOptions& options) {
  const JournalRun ra = record_run(a, options);
  const JournalRun rb = record_run(b, options);
  return bisect_recorded(a, b, ra.journal, rb.journal, /*can_replay=*/true,
                         ra.hit_safety_limit || rb.hit_safety_limit, options);
}

BisectReport bisect_against_journal(const analysis::ExperimentConfig& a,
                                    const analysis::ExperimentConfig& b,
                                    const obs::HashJournal& recorded_b,
                                    const BisectOptions& options) {
  // Phase 3 replays side B from config_b, so the journal must be its run.
  if (recorded_b.seed != b.seed) {
    throw SnapshotError("journal B was recorded at seed " +
                            std::to_string(recorded_b.seed) +
                            ", but side B replays seed " +
                            std::to_string(b.seed),
                        SnapshotErrorKind::kUsage);
  }
  // Align the live run to the recorded cadence; a mismatched cadence
  // would compare hashes taken at different event counts.
  BisectOptions aligned = options;
  aligned.hash_every_events = recorded_b.cadence_events;
  const JournalRun ra = record_run(a, aligned);
  return bisect_recorded(a, b, ra.journal, recorded_b, /*can_replay=*/true,
                         ra.hit_safety_limit, aligned);
}

BisectReport bisect_journals(const obs::HashJournal& a,
                             const obs::HashJournal& b) {
  if (a.cadence_events != b.cadence_events) {
    throw SnapshotError("journal A was recorded at a cadence of " +
                            std::to_string(a.cadence_events) +
                            " events, journal B at " +
                            std::to_string(b.cadence_events),
                        SnapshotErrorKind::kUsage);
  }
  analysis::ExperimentConfig unused;
  return bisect_recorded(unused, unused, a, b, /*can_replay=*/false,
                         /*hit_safety_limit=*/false, BisectOptions{});
}

}  // namespace odr::snapshot
