// odr_bisect: localize the first divergent event between two runs.
//
// Three modes, picked by which inputs are given:
//
//   config vs config    odr_bisect --divisor 400 --seed-a 1 --seed-b 2
//       runs both configs with in-run state hashing, binary-searches the
//       hash timelines, then replays the bracketing window event-by-event
//       to the exact first divergent event;
//
//   config vs journal   odr_bisect --divisor 400 --journal-b run.hashes
//       same, but side B's timeline comes from a recorded odr.hashes.v4
//       journal (write one with `cloud_week --hashes-out`); side B is
//       replayed from its config (--seed-b, which must be the journal's
//       seed) for the event-level phase;
//
//   journal vs journal  odr_bisect --journal-a a.hashes --journal-b b.hashes
//       offline: binary-searches the two recorded timelines (which must
//       share a cadence) and reports the bracketing checkpoint window (no
//       event-level replay).
//
// `--burn-b N` injects one extra rng draw into side B after N events — the
// deliberate divergence bench/divergence_triage uses to prove the bisector
// works. Exit codes: 0 = no divergence, 1 = usage/error (a journal that is
// missing, unreadable, of another format, from another seed or at another
// cadence names its flag), 3 = divergence found (so scripts can tell
// "clean" from "localized").
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>

#include "analysis/failure_kind.h"
#include "analysis/replay.h"
#include "obs/hash_journal.h"
#include "snapshot/bisect.h"
#include "util/args.h"

int main(int argc, char** argv) {
  odr::ArgParser args(
      "Bisect two supposedly-identical runs to their first divergent "
      "event.");
  args.flag("divisor", "400", "scale divisor for live runs");
  args.flag("seed-a", "20151028", "seed for side A");
  args.flag("seed-b", "20151028", "seed for side B");
  args.flag("journal-a", "",
            "recorded odr.hashes.v4 journal for side A (v1 to v3 are "
            "refused)");
  args.flag("journal-b", "",
            "recorded odr.hashes.v4 journal for side B (v1 to v3 are "
            "refused)");
  args.flag("burn-a", "0",
            "inject one extra rng draw into side A after N events (0 = off)");
  args.flag("burn-b", "0",
            "inject one extra rng draw into side B after N events (0 = off)");
  args.flag("hash-every", "500", "hash cadence for live runs");
  args.flag("max-events", "0", "safety limit per run (0 = unlimited)");
  if (!args.parse(argc, argv)) return 1;

  const std::string journal_a = args.get("journal-a");
  const std::string journal_b = args.get("journal-b");

  odr::snapshot::BisectOptions options;
  options.hash_every_events =
      static_cast<std::uint64_t>(args.get_int("hash-every", 1));
  const std::int64_t max_events = args.get_int("max-events", 0);
  if (max_events > 0) {
    options.max_events = static_cast<std::uint64_t>(max_events);
  }

  auto config_for = [&](const char* seed_flag) {
    return odr::analysis::make_scaled_config(
        args.get_double("divisor", 1.0, odr::analysis::kMaxDivisor),
        static_cast<std::uint64_t>(args.get_int(seed_flag)));
  };

  if (!journal_a.empty() && journal_b.empty()) {
    std::fprintf(stderr,
                 "odr_bisect: --journal-a without --journal-b is not a "
                 "mode (pass the recorded side as --journal-b)\n");
    return 1;
  }
  // A journal the bisector cannot use is a usage error naming its flag.
  auto bad_journal = [](const char* flags, const std::exception& e) {
    std::fprintf(stderr, "odr_bisect: %s: %s\n", flags, e.what());
  };
  auto read_journal = [&](const char* flag, const std::string& path,
                          odr::obs::HashJournal& out) {
    if (path.empty()) return true;
    try {
      out = odr::obs::HashJournal::read_file(path);
      return true;
    } catch (const odr::obs::HashJournalError& e) {
      bad_journal(flag, e);
      return false;
    }
  };
  odr::obs::HashJournal recorded_a;
  odr::obs::HashJournal recorded_b;
  if (!read_journal("--journal-a", journal_a, recorded_a) ||
      !read_journal("--journal-b", journal_b, recorded_b)) {
    return 1;
  }

  odr::snapshot::BisectReport report;
  try {
    if (!journal_a.empty()) {
      report = odr::snapshot::bisect_journals(recorded_a, recorded_b);
    } else if (!journal_b.empty()) {
      auto config_a = config_for("seed-a");
      auto config_b = config_for("seed-b");
      // In journal mode the recorded side is already fixed; --burn-a is
      // how a test injects a live-side divergence against a clean journal.
      config_a.debug_burn_rng_at_event =
          static_cast<std::uint64_t>(args.get_int("burn-a"));
      config_b.debug_burn_rng_at_event =
          static_cast<std::uint64_t>(args.get_int("burn-b"));
      report = odr::snapshot::bisect_against_journal(config_a, config_b,
                                                     recorded_b, options);
    } else {
      auto config_a = config_for("seed-a");
      auto config_b = config_for("seed-b");
      config_a.debug_burn_rng_at_event =
          static_cast<std::uint64_t>(args.get_int("burn-a"));
      config_b.debug_burn_rng_at_event =
          static_cast<std::uint64_t>(args.get_int("burn-b"));
      report = odr::snapshot::bisect_divergence(config_a, config_b, options);
    }
  } catch (const std::exception& e) {
    // The bisector refuses a journal from another seed or cadence
    // (SnapshotError, kUsage) before it runs anything.
    const auto* refusal = dynamic_cast<const odr::snapshot::SnapshotError*>(&e);
    if (refusal != nullptr && !journal_b.empty() &&
        refusal->kind() == odr::snapshot::SnapshotErrorKind::kUsage) {
      bad_journal(journal_a.empty() ? "--journal-b" : "--journal-a/--journal-b",
                  e);
      return 1;
    }
    const auto kind = odr::analysis::classify_replay_failure(e);
    std::fprintf(stderr, "odr_bisect: [%.*s] %s\n",
                 static_cast<int>(
                     odr::analysis::replay_failure_kind_name(kind).size()),
                 odr::analysis::replay_failure_kind_name(kind).data(),
                 e.what());
    return 1;
  }

  const auto kind_name = odr::analysis::replay_failure_kind_name(report.kind);
  std::printf("verdict:   %s%s\n",
              report.diverged ? "DIVERGED" : "IDENTICAL",
              report.kind == odr::analysis::DivergenceKind::kSafetyLimit
                  ? " (inconclusive)"
                  : "");
  std::printf("kind:      %.*s\n", static_cast<int>(kind_name.size()),
              kind_name.data());
  std::printf("records:   %llu compared, %llu hash comparison(s)\n",
              static_cast<unsigned long long>(report.journal_records),
              static_cast<unsigned long long>(report.hash_comparisons));
  if (report.diverged) {
    std::printf("checkpoint: record %llu\n",
                static_cast<unsigned long long>(
                    report.first_divergent_checkpoint));
    if (report.first_divergent_event != 0) {
      std::printf("event:     #%llu  time=%lld  id=%llu\n",
                  static_cast<unsigned long long>(report.first_divergent_event),
                  static_cast<long long>(report.event_time),
                  static_cast<unsigned long long>(report.event_id));
      std::printf("subsystem:");
      for (odr::snapshot::Subsystem s : report.subsystems) {
        const auto name = odr::snapshot::subsystem_name(s);
        std::printf(" %.*s", static_cast<int>(name.size()), name.data());
      }
      std::printf("\n");
    }
  }
  std::printf("detail:    %s\n", report.detail.c_str());
  return report.diverged ? 3 : 0;
}
