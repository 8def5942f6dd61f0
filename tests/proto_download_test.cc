#include "proto/download.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <optional>
#include <ostream>
#include <string>

#include "net/network.h"
#include "sim/simulator.h"

namespace odr::proto {
namespace {

// A deterministic scriptable source for driving DownloadTask directly.
class FakeSource final : public Source {
 public:
  explicit FakeSource(Rate rate, double traffic = 1.0)
      : rate_(rate), traffic_(traffic) {}

  // Test-only source; never checkpointed.
  void save(snapshot::SnapshotWriter&) const override {}

  // The test changes the rate from outside, so the task samples it this
  // often.
  static constexpr SimTime kPollPeriod = 5 * kMinute;

  Rate current_rate() const override { return rate_; }
  SimTime next_change(Rng&) override { return kPollPeriod; }
  SimTime fatal_after() const override { return fatal_after_; }
  double traffic_factor() const override { return traffic_; }
  Protocol protocol() const override { return protocol_; }

  void set_rate(Rate r) { rate_ = r; }
  void arm_fatal_after(SimTime t) { fatal_after_ = t; }
  void set_protocol(Protocol p) { protocol_ = p; }

 private:
  Rate rate_;
  double traffic_;
  Protocol protocol_ = Protocol::kHttp;
  SimTime fatal_after_ = kTimeNever;
};

class DownloadTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  net::Network net{sim};
  Rng rng{17};
  std::optional<DownloadResult> result;

  DownloadTask::DoneFn capture() {
    return [this](const DownloadResult& r) { result = r; };
  }
};

TEST_F(DownloadTest, CompletesAtSourceRate) {
  auto source = std::make_unique<FakeSource>(1000.0);
  DownloadTask task(sim, net, std::move(source), 60000, {}, capture());
  task.start(rng);
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->success);
  EXPECT_EQ(result->bytes_downloaded, 60000u);
  EXPECT_EQ(sim.now(), 60 * kSec);
  EXPECT_NEAR(result->average_rate, 1000.0, 1e-6);
}

TEST_F(DownloadTest, LineRateCapsTransfer) {
  // The owner's line rate is passed as the task's rate ceiling.
  auto source = std::make_unique<FakeSource>(10000.0);
  DownloadTask::Config cfg;
  cfg.rate_ceiling = 1000.0;
  DownloadTask task(sim, net, std::move(source), 60000, cfg, capture());
  task.start(rng);
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(sim.now(), 60 * kSec);  // limited by the line, not the source
}

TEST_F(DownloadTest, SinkRateCapsTransfer) {
  // Bottleneck 4: an AP's storage write ceiling, below its line rate, is
  // the task's rate ceiling and throttles a fast source.
  auto source = std::make_unique<FakeSource>(10000.0);
  DownloadTask::Config cfg;
  cfg.rate_ceiling = 500.0;
  DownloadTask task(sim, net, std::move(source), 30000, cfg, capture());
  task.start(rng);
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(sim.now(), 60 * kSec);
  EXPECT_NEAR(result->peak_rate, 500.0, 1e-6);
}

TEST_F(DownloadTest, StagnationTimesOut) {
  auto source = std::make_unique<FakeSource>(0.0);  // starved swarm
  auto* raw = source.get();
  raw->set_protocol(Protocol::kBitTorrent);
  DownloadTask task(sim, net, std::move(source), 1 << 20, {}, capture());
  task.start(rng);
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->success);
  EXPECT_EQ(result->cause, FailureCause::kInsufficientSeeds);
  // Fails at the first tick after one stagnant hour.
  EXPECT_GE(sim.now(), DownloadTask::kStagnationTimeout);
  EXPECT_LE(sim.now(),
            DownloadTask::kStagnationTimeout + 2 * FakeSource::kPollPeriod);
}

TEST_F(DownloadTest, StagnationCauseIsHttpForServerSources) {
  auto source = std::make_unique<FakeSource>(0.0);
  source->set_protocol(Protocol::kFtp);
  DownloadTask task(sim, net, std::move(source), 1 << 20, {}, capture());
  task.start(rng);
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cause, FailureCause::kPoorHttpConnection);
}

TEST_F(DownloadTest, ProgressResetsStagnationClock) {
  // Source alternates between stalled and alive every 30 min; since each
  // stall is shorter than the 1 h timeout, the download must finish.
  auto source = std::make_unique<FakeSource>(1000.0);
  auto* raw = source.get();
  DownloadTask task(sim, net, std::move(source), 900 * 1000, {}, capture());
  task.start(rng);
  bool on = true;
  for (int i = 0; i < 100; ++i) {
    sim.run_until((i + 1) * 30 * kMinute);
    if (result.has_value()) break;
    on = !on;
    raw->set_rate(on ? 1000.0 : 0.0);
  }
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->success);
}

TEST_F(DownloadTest, FatalSourceFailsImmediately) {
  auto source = std::make_unique<FakeSource>(1000.0);
  source->arm_fatal_after(10 * kMinute);
  DownloadTask task(sim, net, std::move(source), 1 << 30, {}, capture());
  task.start(rng);
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->success);
  EXPECT_EQ(result->cause, FailureCause::kPoorHttpConnection);
  EXPECT_LE(sim.now(), 20 * kMinute);
  EXPECT_GT(result->bytes_downloaded, 0u);
}

TEST_F(DownloadTest, HardTimeoutBoundsAttempt) {
  auto source = std::make_unique<FakeSource>(1.0);  // will crawl forever
  DownloadTask task(sim, net, std::move(source), 1 << 30, {}, capture());
  task.start(rng);
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->success);
  EXPECT_EQ(result->cause, FailureCause::kPoorHttpConnection);
  // Fails at the first tick at or past the hard timeout.
  EXPECT_GE(sim.now(), DownloadTask::kHardTimeout);
  EXPECT_LE(sim.now(), DownloadTask::kHardTimeout + FakeSource::kPollPeriod);
}

TEST_F(DownloadTest, AbortReportsAborted) {
  auto source = std::make_unique<FakeSource>(100.0);
  DownloadTask task(sim, net, std::move(source), 1 << 20, {}, capture());
  task.start(rng);
  sim.run_until(kMinute);
  task.abort();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->success);
  EXPECT_EQ(result->cause, FailureCause::kAborted);
  EXPECT_FALSE(task.running());
}

TEST_F(DownloadTest, InjectedFailureCause) {
  auto source = std::make_unique<FakeSource>(100.0);
  DownloadTask task(sim, net, std::move(source), 1 << 20, {}, capture());
  task.start(rng);
  sim.run_until(kMinute);
  task.fail_externally(FailureCause::kSystemBug);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cause, FailureCause::kSystemBug);
}

TEST_F(DownloadTest, TrafficBytesIncludeOverhead) {
  auto source = std::make_unique<FakeSource>(1000.0, 1.96);
  DownloadTask task(sim, net, std::move(source), 100000, {}, capture());
  task.start(rng);
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->traffic_bytes, 196000u);
}

TEST_F(DownloadTest, DestructionWithoutCallbackIsSilent) {
  bool fired = false;
  {
    auto source = std::make_unique<FakeSource>(100.0);
    DownloadTask task(sim, net, std::move(source), 1 << 20, {},
                      [&](const DownloadResult&) { fired = true; });
    task.start(rng);
    sim.run_until(kMinute);
  }
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(net.active_flow_count(), 0u);
}

TEST_F(DownloadTest, SourceRateChangesArePickedUpOnTick) {
  auto source = std::make_unique<FakeSource>(1000.0);
  auto* raw = source.get();
  DownloadTask task(sim, net, std::move(source), 600000, {}, capture());
  task.start(rng);
  sim.run_until(2 * kMinute);  // 120k done
  raw->set_rate(500.0);
  sim.run();
  ASSERT_TRUE(result.has_value());
  // The flow keeps its 1000 B/s cap until the 5-minute tick (300k done);
  // the remaining 300k at 500 B/s take 10 more minutes, where 1000 B/s
  // would have finished at 10 minutes.
  EXPECT_EQ(sim.now(), 15 * kMinute);
}

TEST_F(DownloadTest, SeedlessSwarmWakesExactlyAtItsSeedArrival) {
  // A seedless tail swarm whose first seed, sampled from the task's rng at
  // start, arrives within the stagnation hour: the task sleeps until
  // exactly then, takes the seed and starts moving bytes.
  const SourceParams params;
  Rng pick(23);
  std::unique_ptr<SwarmSource> source;
  SimTime gap = kTimeNever;
  do {
    source = std::make_unique<SwarmSource>(Protocol::kBitTorrent, 3.0,
                                           params.swarm, pick);
  } while (source->swarm().seeds() > 0);
  for (;;) {
    Rng predict = rng;
    gap = source->swarm().next_seed_gap(predict);
    if (gap < DownloadTask::kStagnationTimeout) break;
    rng.next_u64();  // try the next draw
  }
  const SwarmSource* raw = source.get();
  sim.run_until(7 * kMinute);  // start off the origin
  const SimTime started = sim.now();
  DownloadTask task(sim, net, std::move(source), 64 << 20, {}, capture());
  task.start(rng);

  sim.run_until(started + gap - 1);
  EXPECT_EQ(raw->swarm().seeds(), 0u);
  EXPECT_EQ(task.bytes_done(), 0u);
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(sim.now(), started + gap);
  EXPECT_EQ(raw->swarm().seeds(), 1u);
  EXPECT_TRUE(task.running());
  sim.run_until(sim.now() + kMinute);
  EXPECT_GT(task.bytes_done(), 0u);
}

TEST_F(DownloadTest, SeededSwarmWakesOnlyAtSamplesAfterAChange) {
  // A seeded swarm's task sleeps through every sample before the swarm's
  // next birth or death: each wake lands on started_at + k·kTickPeriod,
  // and over six hours the task wakes at far fewer samples than there are.
  const SourceParams params;
  Rng pick(29);
  std::unique_ptr<SwarmSource> source;
  do {
    source = std::make_unique<SwarmSource>(Protocol::kBitTorrent, 10.0,
                                           params.swarm, pick);
  } while (source->swarm().seeds() < 4);
  const SwarmSource* raw = source.get();
  sim.run_until(7 * kMinute);  // start off the origin and off the lattice
  const SimTime started = sim.now();
  // Far too large to finish: every event before the end is the task's.
  DownloadTask task(sim, net, std::move(source), Bytes{1} << 40, {},
                    capture());
  task.start(rng);

  constexpr SimTime kPeriod = SwarmSource::kTickPeriod;
  const SimTime horizon = started + 6 * kHour;
  int wakes = 0;
  int changes = 0;
  while (task.running() && sim.now() < horizon) {
    const std::uint32_t seeds = raw->swarm().seeds();
    const std::uint32_t leechers = raw->swarm().leechers();
    ASSERT_TRUE(sim.step());
    ASSERT_GT(raw->swarm().seeds(), 0u) << "the swarm went seedless";
    EXPECT_EQ((sim.now() - started) % kPeriod, 0)
        << "woke " << sim.now() - started << " after the start";
    ++wakes;
    if (raw->swarm().seeds() != seeds || raw->swarm().leechers() != leechers) {
      ++changes;
    }
  }
  EXPECT_TRUE(task.running());
  EXPECT_GT(changes, 0);
  EXPECT_LT(wakes, (horizon - started) / kPeriod / 2);
}

TEST_F(DownloadTest, FatalServerBreakFinishesExactlyAtItsBreakTime) {
  ServerParams p;
  p.connection_break_prob = 1.0;
  p.non_resumable_prob = 1.0;
  auto source = std::make_unique<ServerSource>(Protocol::kHttp, p, rng);
  const SimTime after = source->fatal_after();
  ASSERT_LT(after, kTimeNever);
  sim.run_until(3 * kMinute);
  const SimTime started = sim.now();
  DownloadTask task(sim, net, std::move(source), Bytes{1} << 40, {},
                    capture());
  task.start(rng);
  // One flow completion and one task event: a server source needs no
  // sampling before its break.
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->success);
  EXPECT_EQ(result->cause, FailureCause::kPoorHttpConnection);
  EXPECT_EQ(result->started_at, started);
  EXPECT_EQ(result->finished_at, started + after);
  EXPECT_GT(result->bytes_downloaded, 0u);
}

// Every path into the task's finish hands the result to an owner that
// destroys the task inside the done callback; nothing may touch the task
// afterwards (the sanitizer build checks), and the task leaves no flow
// and no event behind.
enum class FinishPath {
  kFlowComplete,
  kStagnation,
  kFatalSource,
  kAbort,
  kFailExternally,
  kChecksumExhausted,
};

const char* path_name(FinishPath path) {
  switch (path) {
    case FinishPath::kFlowComplete: return "FlowComplete";
    case FinishPath::kStagnation: return "Stagnation";
    case FinishPath::kFatalSource: return "FatalSource";
    case FinishPath::kAbort: return "Abort";
    case FinishPath::kFailExternally: return "FailExternally";
    case FinishPath::kChecksumExhausted: return "ChecksumExhausted";
  }
  return "Unknown";
}

void PrintTo(FinishPath path, std::ostream* os) { *os << path_name(path); }

class DownloadLifecycleTest : public DownloadTest,
                              public ::testing::WithParamInterface<FinishPath> {
};

TEST_P(DownloadLifecycleTest, OwnerMayDestroyTaskInDoneCallback) {
  const FinishPath path = GetParam();
  const Rate rate = path == FinishPath::kStagnation ? 0.0 : 1000.0;
  auto source = std::make_unique<FakeSource>(rate);
  if (path == FinishPath::kFatalSource) source->arm_fatal_after(10 * kMinute);
  DownloadTask::Config cfg;
  if (path == FinishPath::kChecksumExhausted) cfg.corruption_prob = 1.0;

  // The callback destroys the task first and then reads its own captured
  // copy: the task must not be holding the callback while it runs.
  std::unique_ptr<DownloadTask> task;
  std::size_t pending_in_callback = ~std::size_t{0};
  std::string owner_seen;
  const std::string owner = "owner";
  task = std::make_unique<DownloadTask>(
      sim, net, std::move(source), 1 << 20, cfg,
      [&, owner](const DownloadResult& r) {
        task.reset();
        result = r;
        pending_in_callback = sim.pending_count();
        owner_seen = owner;
      });
  task->start(rng);
  if (path == FinishPath::kAbort || path == FinishPath::kFailExternally) {
    sim.run_until(10 * kSec);
    if (path == FinishPath::kAbort) {
      task->abort();
    } else {
      task->fail_externally(FailureCause::kSystemBug);
    }
  }
  sim.run();

  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(task, nullptr);
  EXPECT_EQ(result->success, path == FinishPath::kFlowComplete);
  const FailureCause expected = [&] {
    switch (path) {
      case FinishPath::kFlowComplete: return FailureCause::kNone;
      case FinishPath::kStagnation:
      case FinishPath::kFatalSource: return FailureCause::kPoorHttpConnection;
      case FinishPath::kAbort: return FailureCause::kAborted;
      case FinishPath::kFailExternally: return FailureCause::kSystemBug;
      case FinishPath::kChecksumExhausted:
        return FailureCause::kChecksumMismatch;
    }
    return FailureCause::kNone;
  }();
  EXPECT_EQ(result->cause, expected);
  EXPECT_EQ(owner_seen, owner);
  EXPECT_EQ(pending_in_callback, 0u);
  EXPECT_EQ(net.active_flow_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    EveryPath, DownloadLifecycleTest,
    ::testing::Values(FinishPath::kFlowComplete, FinishPath::kStagnation,
                      FinishPath::kFatalSource, FinishPath::kAbort,
                      FinishPath::kFailExternally,
                      FinishPath::kChecksumExhausted));

}  // namespace
}  // namespace odr::proto
