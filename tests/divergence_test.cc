// Divergence triage: in-run state hashes, the odr.hashes.v4 journal, and
// the first-divergence bisector (src/snapshot/state_hash.h, bisect.h,
// src/obs/hash_journal.h; see DESIGN.md §12).
//
// The contract under test, end to end: two runs of the same config hash
// identically at every cadence point; an injected single-event divergence
// (one extra rng draw, the debug_burn_rng_at_event hook) is localized by
// the bisector to EXACTLY that event in O(log n) checkpoint comparisons;
// and turning hashing on never perturbs the simulation — the final world
// serializes to the same bytes and the calibration monitor produces the
// same statistics as a hashing-off run.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/failure_kind.h"
#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "fault/fault_plan.h"
#include "obs/hash_journal.h"
#include "obs/observer.h"
#include "snapshot/bisect.h"
#include "snapshot/format.h"
#include "snapshot/state_hash.h"
#include "snapshot/world.h"
#include "util/crc32.h"

namespace odr {
namespace {

constexpr double kDivisor = 4000.0;
constexpr std::uint64_t kSeed = 20151028;

analysis::ExperimentConfig config_at(std::uint64_t seed = kSeed) {
  return analysis::make_scaled_config(kDivisor, seed);
}

snapshot::WorldOptions world_options(std::uint64_t hash_every = 0) {
  snapshot::WorldOptions o;
  o.audit_at_checkpoint = false;
  o.hash_every_events = hash_every;
  return o;
}

std::uint64_t log2_ceil(std::uint64_t n) {
  std::uint64_t bits = 0;
  while ((1ull << bits) < n) ++bits;
  return bits;
}

// --- StateHasher ----------------------------------------------------------

TEST(StateHashTest, IdenticalRunsHashIdentically) {
  snapshot::CloudWorld a(config_at(), world_options());
  snapshot::CloudWorld b(config_at(), world_options());
  a.run(500);
  b.run(500);
  const snapshot::StateHash ha = a.hash_now();
  const snapshot::StateHash hb = b.hash_now();
  EXPECT_TRUE(ha == hb);
  EXPECT_TRUE(snapshot::divergent_subsystems(ha, hb).empty());
}

TEST(StateHashTest, DifferentSeedsHashDifferently) {
  snapshot::CloudWorld a(config_at(kSeed), world_options());
  snapshot::CloudWorld b(config_at(kSeed + 1), world_options());
  a.run(500);
  b.run(500);
  const snapshot::StateHash ha = a.hash_now();
  const snapshot::StateHash hb = b.hash_now();
  EXPECT_FALSE(ha == hb);
  EXPECT_FALSE(snapshot::divergent_subsystems(ha, hb).empty());
}

TEST(StateHashTest, HashAdvancesWithTheWorld) {
  snapshot::CloudWorld w(config_at(), world_options());
  w.run(200);
  const snapshot::StateHash h1 = w.hash_now();
  w.run(200);
  const snapshot::StateHash h2 = w.hash_now();
  EXPECT_FALSE(h1 == h2);
  EXPECT_GT(h2.executed, h1.executed);
}

TEST(StateHashTest, CadenceRecordsOnePerBoundary) {
  snapshot::CloudWorld w(config_at(), world_options(250));
  const std::uint64_t total = w.run();
  ASSERT_GT(total, 1000u);
  const auto& hashes = w.hashes();
  // One record per full cadence boundary plus the end-of-run record (which
  // dedupes if the drain lands exactly on a boundary).
  ASSERT_GE(hashes.size(), total / 250);
  for (std::size_t i = 0; i + 1 < hashes.size(); ++i) {
    EXPECT_LT(hashes[i].executed, hashes[i + 1].executed);
    if (i + 2 < hashes.size()) {
      EXPECT_EQ(hashes[i + 1].executed - hashes[i].executed, 250u);
    }
  }
  // Sub-hash layout: every record carries the full subsystem array and a
  // combined digest that recomputes from it.
  for (const auto& h : hashes) {
    EXPECT_EQ(h.combined, snapshot::combine_sub_hashes(h.sub));
  }
}

struct Frame {
  std::uint32_t id = 0;
  std::uint64_t len = 0;  // payload bytes
  std::uint32_t crc = 0;  // stored payload CRC
};

// Every section framed in a checkpoint, read from the bytes alone, in file
// order; each stored CRC must match its payload.
std::vector<Frame> section_frames(const std::string& buf) {
  auto le = [&buf](std::size_t at, int bytes) {
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[at + i]))
           << (8 * i);
    }
    return v;
  };
  std::vector<Frame> out;
  std::size_t pos = 8;  // magic + format version
  while (pos + 20 <= buf.size()) {
    const auto id = static_cast<std::uint32_t>(le(pos, 4));
    const std::uint64_t len = le(pos + 8, 8);
    const auto crc = static_cast<std::uint32_t>(le(pos + 16, 4));
    EXPECT_EQ(crc, crc32c(buf.data() + pos + 20, len)) << "section " << id;
    out.push_back({id, len, crc});
    pos += 20 + len;
  }
  EXPECT_EQ(pos, buf.size());
  return out;
}

TEST(StateHashTest, SubHashesAreTheCheckpointSectionCrcs) {
  analysis::ExperimentConfig cfg = config_at();
  cfg.cloud.degraded_admission = true;
  cfg.fault_plan = fault::make_chaos_plan(3);
  snapshot::CloudWorld w(cfg, world_options());
  using snapshot::Subsystem;
  const std::vector<Subsystem> file_order = {
      Subsystem::kEvents, Subsystem::kFlows,   Subsystem::kRng,
      Subsystem::kCaches, Subsystem::kUploads, Subsystem::kVm,
      Subsystem::kTasks,  Subsystem::kFault,   Subsystem::kWorld};
  std::uint64_t world_len = 0;
  std::uint64_t caches_len = 0;
  for (const std::uint64_t chunk : {0, 1, 300, 1500, 100000000}) {
    w.run(chunk);
    const auto frames = section_frames(w.save_to_buffer());
    const snapshot::StateHash h = w.hash_now();
    // The meta section, one section per subsystem, then the outcome log and
    // the cache window.
    ASSERT_EQ(frames.size(), 3 + snapshot::kSubsystemCount);
    EXPECT_EQ(frames.front().id, 1u);
    EXPECT_EQ(frames[frames.size() - 2].id, 2u);
    EXPECT_EQ(frames.back().id, 3u);
    for (std::size_t i = 0; i < file_order.size(); ++i) {
      const Subsystem s = file_order[i];
      EXPECT_EQ(frames[i + 1].id, snapshot::section_id(s));
      EXPECT_EQ(frames[i + 1].crc, h.sub[static_cast<std::size_t>(s)])
          << snapshot::subsystem_name(s) << " after "
          << w.sim().executed_count() << " events";
    }
    // The hashed world section holds the outcome count and the log's
    // running CRC, not the records, and the caches section the cache
    // window's counts and digests, not its records: each is as long at
    // the week's last hash as at its first.
    const Frame& world = frames[file_order.size()];
    if (world_len == 0) world_len = world.len;
    EXPECT_EQ(world.len, world_len);
    const Frame& caches = frames[4];
    ASSERT_EQ(caches.id, snapshot::section_id(Subsystem::kCaches));
    if (caches_len == 0) caches_len = caches.len;
    EXPECT_EQ(caches.len, caches_len);
  }
  EXPECT_FALSE(w.sim().has_pending());
  EXPECT_GT(w.outcomes().size(), 0u);
}

TEST(StateHashTest, HashedBytesFollowLiveState) {
  // snapshot.hash.bytes counts the bytes each hash serializes. The outcome
  // records and the cache window are not among them, so the week's last
  // hash is within 1.5x of its first although the outcome log grows from
  // nothing to every task, and the caches section is the same size at
  // every hash although the content DB's window fills and drains.
  obs::ObsConfig ocfg;
  ocfg.tracing = false;
  obs::ScopedObserver scoped(ocfg);
  auto hashed_bytes = [&scoped] {
    const obs::Counter* c =
        scoped->metrics().find_counter("snapshot.hash.bytes");
    return c != nullptr ? c->value() : 0;
  };
  const std::uint32_t caches =
      snapshot::section_id(snapshot::Subsystem::kCaches);
  auto caches_len = [caches](const snapshot::CloudWorld& w) {
    for (const Frame& f : section_frames(w.save_to_buffer())) {
      if (f.id == caches) return f.len;
    }
    ADD_FAILURE() << "no caches section";
    return std::uint64_t{0};
  };
  snapshot::CloudWorld w(config_at(), world_options());
  const std::uint64_t first_caches_len = caches_len(w);
  std::vector<std::uint64_t> sizes;
  while (w.run(250) == 250) {
    const std::uint64_t before = hashed_bytes();
    (void)w.hash_now();
    sizes.push_back(hashed_bytes() - before);
    ASSERT_EQ(caches_len(w), first_caches_len)
        << "after " << w.sim().executed_count() << " events";
  }
  ASSERT_GT(sizes.size(), 4u);
  EXPECT_GT(sizes.front(), 0u);
  EXPECT_LE(sizes.back(), sizes.front() * 3 / 2);
  EXPECT_GT(w.outcomes().size(), 0u);
}

TEST(StateHashTest, RestoredWorldHashesLikeTheUninterruptedOne) {
  // The caches sub-hash digests the content DB's and the pool's history;
  // a checkpoint carries those digests, so a world restored mid-week
  // hashes as the uninterrupted one does at every later cadence point.
  constexpr std::uint64_t kCadence = 250;
  snapshot::CloudWorld whole(config_at(), world_options(kCadence));
  whole.run();
  snapshot::CloudWorld first_part(config_at(), world_options());
  first_part.run(1100);
  const std::string ckpt = first_part.save_to_buffer();
  snapshot::CloudWorld resumed(config_at(), world_options(kCadence), ckpt);
  resumed.run();

  std::vector<snapshot::StateHash> later;
  for (const snapshot::StateHash& h : whole.hashes()) {
    if (h.executed > 1100) later.push_back(h);
  }
  ASSERT_GT(later.size(), 4u);
  ASSERT_EQ(resumed.hashes().size(), later.size());
  const auto caches = static_cast<std::size_t>(snapshot::Subsystem::kCaches);
  for (std::size_t i = 0; i < later.size(); ++i) {
    const snapshot::StateHash& h = resumed.hashes()[i];
    EXPECT_EQ(h.executed, later[i].executed);
    EXPECT_EQ(h.sub[caches], later[i].sub[caches])
        << "caches after " << h.executed << " events";
    EXPECT_TRUE(h == later[i]) << "after " << h.executed << " events";
  }
}

// --- odr.hashes.v4 journal ------------------------------------------------

obs::HashJournal sample_journal() {
  snapshot::CloudWorld w(config_at(), world_options(500));
  w.run();
  obs::HashJournal j;
  j.cadence_events = 500;
  j.seed = kSeed;
  j.records = w.hashes();
  return j;
}

TEST(HashJournalTest, RoundTripsThroughText) {
  const obs::HashJournal j = sample_journal();
  ASSERT_FALSE(j.records.empty());
  const obs::HashJournal back = obs::HashJournal::from_text(j.to_text());
  EXPECT_EQ(back.cadence_events, j.cadence_events);
  EXPECT_EQ(back.seed, j.seed);
  ASSERT_EQ(back.records.size(), j.records.size());
  for (std::size_t i = 0; i < j.records.size(); ++i) {
    EXPECT_TRUE(back.records[i] == j.records[i]) << "record " << i;
  }
}

TEST(HashJournalTest, ParserRejectsTampering) {
  const std::string text = sample_journal().to_text();
  // Truncated mid-record.
  EXPECT_THROW(obs::HashJournal::from_text(text.substr(0, text.size() - 10)),
               obs::HashJournalError);
  // Unknown / renamed key.
  std::string renamed = text;
  const auto pos = renamed.find("\"executed\"");
  ASSERT_NE(pos, std::string::npos);
  renamed.replace(pos, 10, "\"exeKuted\"");
  EXPECT_THROW(obs::HashJournal::from_text(renamed), obs::HashJournalError);
  // A flipped digit in a sub-hash breaks the combined-digest cross-check.
  std::string flipped = text;
  const auto sub = flipped.find("\"sub\":[\"0x");
  ASSERT_NE(sub, std::string::npos);
  char& digit = flipped[sub + 10];
  digit = digit == 'f' ? '0' : 'f';
  EXPECT_THROW(obs::HashJournal::from_text(flipped), obs::HashJournalError);
}

// Parsing `text` throws a HashJournalError whose message contains `needle`.
void expect_parse_error(const std::string& text, const std::string& needle) {
  try {
    obs::HashJournal::from_text(text);
    FAIL() << "parsed: " << text;
  } catch (const obs::HashJournalError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(HashJournalTest, ParserRefusesV1Journals) {
  // v1 records carried an event_seq and eleven sub-hashes; the header alone
  // is refused.
  expect_parse_error(
      "{\"format\":\"odr.hashes.v1\",\"cadence_events\":500,"
      "\"seed\":20151028}\n",
      "unsupported format \"odr.hashes.v1\"");
}

TEST(HashJournalTest, ParserRefusesV2Journals) {
  // A v2 world sub-hash covered every outcome record; v3's covers the
  // outcome count and the log's running CRC, so the values never agree.
  expect_parse_error(
      "{\"format\":\"odr.hashes.v2\",\"cadence_events\":500,"
      "\"seed\":20151028}\n",
      "unsupported format \"odr.hashes.v2\"");
}

TEST(HashJournalTest, ParserRefusesV3Journals) {
  // A v3 caches sub-hash covered the content DB's window and the pool's
  // entries; v4's covers their counts and running digests, so the values
  // never agree.
  expect_parse_error(
      "{\"format\":\"odr.hashes.v3\",\"cadence_events\":500,"
      "\"seed\":20151028}\n",
      "unsupported format \"odr.hashes.v3\"");
}

TEST(HashJournalTest, ParserRefusesCadenceZero) {
  expect_parse_error(
      "{\"format\":\"odr.hashes.v4\",\"cadence_events\":0,"
      "\"seed\":20151028}\n",
      "cadence_events must be at least 1");
}

// --- bisector -------------------------------------------------------------

TEST(BisectTest, IdenticalConfigsAreIdenticalInOneComparison) {
  const auto report = snapshot::bisect_divergence(config_at(), config_at());
  EXPECT_FALSE(report.diverged);
  EXPECT_EQ(report.kind, analysis::DivergenceKind::kNone);
  EXPECT_EQ(report.hash_comparisons, 1u);
}

TEST(BisectTest, PinsAnInjectedBurnToTheExactEvent) {
  const analysis::ExperimentConfig clean = config_at();

  std::uint64_t total = 0;
  {
    snapshot::CloudWorld w(clean, world_options());
    total = w.run();
  }
  const std::uint64_t burn_at = total * 2 / 5;
  ASSERT_GT(burn_at, 0u);

  SimTime expected_time = 0;
  std::uint64_t expected_id = 0;
  {
    snapshot::CloudWorld w(clean, world_options());
    w.run(burn_at + 1);
    expected_time = w.sim().last_event_time();
    expected_id = w.sim().last_event_id();
  }

  analysis::ExperimentConfig burned = clean;
  burned.debug_burn_rng_at_event = burn_at;

  snapshot::BisectOptions options;
  options.hash_every_events = 400;
  const auto report = snapshot::bisect_divergence(clean, burned, options);

  EXPECT_TRUE(report.diverged);
  EXPECT_EQ(report.kind, analysis::DivergenceKind::kHashMismatch);
  EXPECT_EQ(report.first_divergent_event, burn_at + 1);
  EXPECT_EQ(report.event_time, expected_time);
  EXPECT_EQ(report.event_id, expected_id);
  // Which subsystems the divergent event disturbs depends on what it
  // draws; the burn's own footprint is checked directly below.
  EXPECT_FALSE(report.subsystems.empty());
  // O(log n): one probe of the last record plus the binary search.
  EXPECT_LE(report.hash_comparisons, 1 + log2_ceil(report.journal_records));

  // The burn itself perturbs the generator and nothing else: hashed after
  // it fires and before event burn_at + 1 runs, the burned world differs
  // from the clean one in the rng sub-hash alone.
  snapshot::CloudWorld a(clean, world_options());
  snapshot::CloudWorld b(burned, world_options());
  a.run(burn_at);
  b.run(burn_at);
  EXPECT_EQ(a.hash_now(), b.hash_now());
  b.burn_rng_if_due();
  EXPECT_EQ(snapshot::divergent_subsystems(a.hash_now(), b.hash_now()),
            std::vector<snapshot::Subsystem>{snapshot::Subsystem::kRng});
  // That state has no checkpoint: a restore would burn a second time.
  EXPECT_THROW(b.save_to_buffer(), snapshot::SnapshotError);
}

TEST(BisectTest, JournalModeMatchesLiveMode) {
  const analysis::ExperimentConfig clean = config_at();
  std::uint64_t total = 0;
  obs::HashJournal recorded;
  {
    snapshot::CloudWorld w(clean, world_options(400));
    total = w.run();
    recorded.cadence_events = 400;
    recorded.seed = clean.seed;
    recorded.records = w.hashes();
  }
  analysis::ExperimentConfig burned = clean;
  burned.debug_burn_rng_at_event = total / 2;

  // Live side A carries the burn; side B is the clean recorded journal.
  const auto report =
      snapshot::bisect_against_journal(burned, clean, recorded);
  EXPECT_TRUE(report.diverged);
  EXPECT_EQ(report.kind, analysis::DivergenceKind::kHashMismatch);
  EXPECT_EQ(report.first_divergent_event, total / 2 + 1);
  // The same pair bisected live names the same event and subsystems.
  snapshot::BisectOptions options;
  options.hash_every_events = 400;
  const auto live = snapshot::bisect_divergence(burned, clean, options);
  EXPECT_EQ(live.first_divergent_event, report.first_divergent_event);
  EXPECT_EQ(live.event_time, report.event_time);
  EXPECT_EQ(live.event_id, report.event_id);
  EXPECT_FALSE(report.subsystems.empty());
  EXPECT_EQ(live.subsystems, report.subsystems);
}

// A well-formed four-record journal at `cadence`, recorded at `seed`.
obs::HashJournal synthetic_journal(std::uint64_t cadence,
                                   std::uint64_t seed = kSeed) {
  obs::HashJournal j;
  j.cadence_events = cadence;
  j.seed = seed;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    snapshot::StateHash h;
    h.executed = i * cadence;
    h.combined = snapshot::combine_sub_hashes(h.sub);
    j.records.push_back(h);
  }
  return j;
}

void expect_refusal(const std::function<void()>& bisect) {
  try {
    bisect();
    FAIL() << "the bisector accepted a journal it would mis-bisect";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_EQ(static_cast<int>(e.kind()),
              static_cast<int>(snapshot::SnapshotErrorKind::kUsage))
        << e.what();
  }
}

TEST(BisectTest, RefusesJournalsAtDifferentCadences) {
  // Record i of each journal hashes a different event count, so they
  // would "diverge" at record 0.
  expect_refusal([] {
    snapshot::bisect_journals(synthetic_journal(400), synthetic_journal(500));
  });
}

TEST(BisectTest, RefusesAJournalFromAnotherSeed) {
  // Phase 3 would replay side B from a config the journal did not record.
  expect_refusal([] {
    snapshot::bisect_against_journal(config_at(), config_at(kSeed + 1),
                                     synthetic_journal(400));
  });
}

TEST(BisectTest, SafetyLimitIsInconclusiveNotIdentical) {
  snapshot::BisectOptions options;
  options.hash_every_events = 100;
  options.max_events = 300;
  const auto report =
      snapshot::bisect_divergence(config_at(), config_at(), options);
  EXPECT_FALSE(report.diverged);
  EXPECT_EQ(report.kind, analysis::DivergenceKind::kSafetyLimit);
}

// --- taxonomy -------------------------------------------------------------

TEST(FailureKindTest, NamesAreStable) {
  using analysis::ReplayFailureKind;
  EXPECT_EQ(analysis::replay_failure_kind_name(ReplayFailureKind::kNone),
            "None");
  EXPECT_EQ(
      analysis::replay_failure_kind_name(ReplayFailureKind::kHashMismatch),
      "HashMismatch");
  EXPECT_EQ(analysis::replay_failure_kind_name(
                ReplayFailureKind::kFingerprintMismatch),
            "FingerprintMismatch");
  EXPECT_EQ(
      analysis::replay_failure_kind_name(ReplayFailureKind::kSnapshotCorrupt),
      "SnapshotCorrupt");
  EXPECT_EQ(
      analysis::replay_failure_kind_name(ReplayFailureKind::kSafetyLimit),
      "SafetyLimit");
  EXPECT_EQ(
      analysis::replay_failure_kind_name(ReplayFailureKind::kAuditFailure),
      "AuditFailure");
}

TEST(FailureKindTest, ClassifiesExceptions) {
  using analysis::ReplayFailureKind;
  const snapshot::SnapshotError corrupt(
      "bad frame", snapshot::SnapshotErrorKind::kCorrupt, 3, 0, 42);
  EXPECT_EQ(analysis::classify_replay_failure(corrupt),
            ReplayFailureKind::kSnapshotCorrupt);
  const snapshot::SnapshotError audit("invariant violated",
                                      snapshot::SnapshotErrorKind::kAudit);
  EXPECT_EQ(analysis::classify_replay_failure(audit),
            ReplayFailureKind::kAuditFailure);
  const std::runtime_error other("model blew up");
  EXPECT_EQ(analysis::classify_replay_failure(other),
            ReplayFailureKind::kReplicateException);
}

// --- hashing transparency -------------------------------------------------

TEST(HashingTransparencyTest, FinalWorldBytesAreUnchanged) {
  analysis::ExperimentConfig cfg = config_at();
  cfg.cloud.degraded_admission = true;
  cfg.fault_plan = fault::make_chaos_plan(3);

  snapshot::CloudWorld off(cfg, world_options(0));
  snapshot::CloudWorld on(cfg, world_options(500));
  off.run();
  on.run();
  EXPECT_FALSE(on.hashes().empty());
  EXPECT_TRUE(off.hashes().empty());
  EXPECT_EQ(off.save_to_buffer(), on.save_to_buffer());
  EXPECT_EQ(analysis::outcome_fingerprint(off.finalize().outcomes),
            analysis::outcome_fingerprint(on.finalize().outcomes));
}

TEST(HashingTransparencyTest, CalibrationStatisticsAreUnchanged) {
  analysis::ExperimentConfig cfg = config_at();
  cfg.cloud.degraded_admission = true;

  auto run_with = [&](std::uint64_t cadence) {
    obs::ObsConfig ocfg;
    ocfg.tracing = false;
    ocfg.dump_on_fault_fired = false;
    ocfg.spans = true;
    ocfg.calibration = true;
    obs::ScopedObserver scoped(ocfg);
    snapshot::CloudWorld w(cfg, world_options(cadence));
    w.run();
    return scoped->calibration()->report();
  };

  const obs::CalibrationReport off = run_with(0);
  const obs::CalibrationReport on = run_with(500);
  EXPECT_EQ(on.gated_total, off.gated_total);
  EXPECT_EQ(on.gated_pass, off.gated_pass);
  ASSERT_EQ(on.rows.size(), off.rows.size());
  for (std::size_t i = 0; i < off.rows.size(); ++i) {
    EXPECT_EQ(on.rows[i].spec.key, off.rows[i].spec.key);
    // Bit-exact, not approximately equal: hashing must not reorder or
    // perturb a single sample.
    EXPECT_EQ(on.rows[i].estimate, off.rows[i].estimate)
        << off.rows[i].spec.key;
    EXPECT_EQ(on.rows[i].samples, off.rows[i].samples) << off.rows[i].spec.key;
    EXPECT_EQ(static_cast<int>(on.rows[i].status),
              static_cast<int>(off.rows[i].status))
        << off.rows[i].spec.key;
  }
}

}  // namespace
}  // namespace odr
