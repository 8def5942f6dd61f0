// Bit-flip fuzz over a saved world snapshot.
//
// The checkpoint format's robustness claim (DESIGN.md §12, snapshot/format.h)
// is that NO single-bit corruption of a checkpoint can slip through: every
// byte of the buffer is either a validated frame header (section id,
// version, payload length, CRC32C) or payload covered by that CRC, so any
// flip must surface as a structured SnapshotError — naming what failed —
// and never as a crash, a hang, or a silently-wrong restored world. This
// test flips bits at deterministically-random positions across the whole
// buffer (plus every byte of the first frame header, where the parsing
// decisions live) and asserts exactly that.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "analysis/replay.h"
#include "core/budget.h"
#include "snapshot/format.h"
#include "snapshot/world.h"
#include "util/rng.h"

namespace odr {
namespace {

constexpr double kDivisor = 4000.0;
constexpr std::uint64_t kSeed = 20151028;

snapshot::WorldOptions world_options() {
  snapshot::WorldOptions o;
  o.audit_at_checkpoint = false;
  return o;
}

struct Fixture {
  analysis::ExperimentConfig config;
  std::string buffer;

  Fixture() : config(analysis::make_scaled_config(kDivisor, kSeed)) {
    snapshot::CloudWorld world(config, world_options());
    world.run(1500);
    buffer = world.save_to_buffer();
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

// One corrupted restore attempt. Returns the caught SnapshotError's kind;
// anything other than a SnapshotError (another exception type, or a
// restore that "succeeds" on corrupt bytes) fails the test.
void expect_structured_rejection(const std::string& corrupt,
                                 const std::string& where) {
  const Fixture& f = fixture();
  try {
    snapshot::CloudWorld world(f.config, world_options(), corrupt);
    FAIL() << where << ": corrupt snapshot restored without an error";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()), "") << where;
    EXPECT_EQ(static_cast<int>(e.kind()),
              static_cast<int>(snapshot::SnapshotErrorKind::kCorrupt))
        << where << ": " << e.what();
  } catch (const std::exception& e) {
    FAIL() << where << ": unstructured exception: " << e.what();
  }
}

TEST(SnapshotFuzzTest, CleanBufferRestores) {
  const Fixture& f = fixture();
  ASSERT_GT(f.buffer.size(), 64u);
  snapshot::CloudWorld restored(f.config, world_options(), f.buffer);
  // Resuming the restored world must finish the week (sanity that the
  // fixture buffer is a live checkpoint, not an already-drained world).
  EXPECT_GT(restored.run(), 0u);
}

TEST(SnapshotFuzzTest, RandomBitFlipsAreAllCaught) {
  const Fixture& f = fixture();
  Rng rng(0xb17f11f5u);  // deterministic: same positions every run
  constexpr int kFlips = 200;
  for (int i = 0; i < kFlips; ++i) {
    const auto pos = static_cast<std::size_t>(
        rng.next_u64() % static_cast<std::uint64_t>(f.buffer.size()));
    const auto bit = static_cast<unsigned>(rng.next_u64() % 8);
    std::string corrupt = f.buffer;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1u << bit));
    expect_structured_rejection(
        corrupt, "flip " + std::to_string(i) + " @" + std::to_string(pos) +
                     " bit " + std::to_string(bit));
  }
}

TEST(SnapshotFuzzTest, FirstFrameHeaderBytesAreAllCaught) {
  // The first 24 bytes hold the first section's id, version, length and
  // CRC — the bytes that steer the parser. Exhaustively flip the low bit
  // of each.
  const Fixture& f = fixture();
  const std::size_t n = std::min<std::size_t>(24, f.buffer.size());
  for (std::size_t pos = 0; pos < n; ++pos) {
    std::string corrupt = f.buffer;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 1);
    expect_structured_rejection(corrupt, "header byte " + std::to_string(pos));
  }
}

TEST(SnapshotFuzzTest, TruncationsAreAllCaught) {
  const Fixture& f = fixture();
  Rng rng(0x7a11cafeu);
  constexpr int kCuts = 32;
  for (int i = 0; i < kCuts; ++i) {
    const auto keep = static_cast<std::size_t>(
        rng.next_u64() % static_cast<std::uint64_t>(f.buffer.size()));
    expect_structured_rejection(f.buffer.substr(0, keep),
                                "truncate to " + std::to_string(keep));
  }
  expect_structured_rejection("", "empty buffer");
}

TEST(SnapshotFuzzTest, ErrorsNameSectionAndOffset) {
  // A payload flip deep in the buffer must be attributed: the structured
  // error carries the enclosing section and a byte offset, which is what
  // the triage docs tell users to read first.
  const Fixture& f = fixture();
  std::string corrupt = f.buffer;
  const std::size_t pos = corrupt.size() / 2;
  corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
  try {
    snapshot::CloudWorld world(f.config, world_options(), corrupt);
    FAIL() << "corrupt snapshot restored without an error";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_EQ(static_cast<int>(e.kind()),
              static_cast<int>(snapshot::SnapshotErrorKind::kCorrupt));
    const std::string what(e.what());
    EXPECT_NE(what.find("section"), std::string::npos) << what;
  }
}

// --- retry budget section ---------------------------------------------------

// A small section of the kind the world writes: the vm section carries the
// pool's shared retry budget, here framed on its own so every byte can be
// flipped and every length tried.
constexpr std::uint32_t kBudgetSection = 7;

core::RetryBudget::Config budget_config() {
  core::RetryBudget::Config c;
  c.enabled = true;
  return c;
}

std::string budget_section_buffer() {
  core::RetryBudget budget(budget_config());
  budget.try_acquire(7, 5 * kMinute);
  budget.try_acquire(8, 6 * kMinute);
  budget.try_acquire_global(7 * kMinute);
  snapshot::SnapshotWriter w;
  w.begin_section(kBudgetSection, 1);
  budget.save(w);
  w.end_section();
  return w.take();
}

void load_budget_section(std::string bytes, core::RetryBudget& budget) {
  snapshot::SnapshotReader r(bytes);
  r.require_section(kBudgetSection, 1);
  budget.load(r);
  r.end_section();
}

void expect_budget_rejection(std::string corrupt, const std::string& where) {
  try {
    core::RetryBudget budget(budget_config());
    load_budget_section(std::move(corrupt), budget);
    FAIL() << where << ": corrupt budget section loaded without an error";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()), "") << where;
  } catch (const std::exception& e) {
    FAIL() << where << ": unstructured exception: " << e.what();
  }
}

TEST(SnapshotFuzzTest, RetryBudgetSectionCleanBufferRestores) {
  core::RetryBudget budget(budget_config());
  load_budget_section(budget_section_buffer(), budget);
  EXPECT_EQ(budget.granted(), 3u);
}

TEST(SnapshotFuzzTest, RetryBudgetSectionBitFlipsAreAllCaught) {
  // The section is small, so flip the low bit of EVERY byte: header,
  // tags, payload and CRC alike must all reject loudly.
  const std::string buf = budget_section_buffer();
  for (std::size_t pos = 0; pos < buf.size(); ++pos) {
    std::string corrupt = buf;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 1);
    expect_budget_rejection(std::move(corrupt),
                            "budget flip @" + std::to_string(pos));
  }
}

TEST(SnapshotFuzzTest, RetryBudgetSectionTruncationsAreAllCaught) {
  const std::string buf = budget_section_buffer();
  for (std::size_t keep = 0; keep < buf.size(); ++keep) {
    expect_budget_rejection(buf.substr(0, keep),
                            "budget truncate to " + std::to_string(keep));
  }
}

}  // namespace
}  // namespace odr
