// Fault-injection layer tests: every FaultKind firing and recovering,
// plus the fault-tolerance machinery it exercises — pre-downloader
// retry/backoff and front-requeue, DownloadTask checksum verification,
// SmartAp crash/reboot resume, circuit-breaker state transitions, and the
// executor's breaker-driven rerouting — all under simulated time.
#include "fault/injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ap/smart_ap.h"
#include "cloud/config.h"
#include "cloud/predownloader.h"
#include "cloud/storage_pool.h"
#include "cloud/upload_scheduler.h"
#include "core/circuit_breaker.h"
#include "core/executor.h"
#include "fault/fault_plan.h"
#include "net/network.h"
#include "proto/download.h"
#include "proto/source.h"
#include "sim/simulator.h"
#include "sized_catalog.h"
#include "util/md5.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/file.h"

namespace odr {
namespace {

// Source parameters that make every HTTP/FTP transfer fully deterministic:
// exactly `rate` bytes/sec, no connection breaks.
proto::SourceParams deterministic_server_sources(double rate) {
  proto::SourceParams p;
  p.server.rate_median = rate;
  p.server.rate_sigma = 0.0;
  p.server.connection_break_prob = 0.0;
  return p;
}

workload::FileInfo make_file(const std::string& name, Bytes size,
                             proto::Protocol protocol,
                             double weekly_popularity = 1.0) {
  workload::FileInfo f;
  f.index = 0;
  f.content_id = Md5::of(name);
  f.size = size;
  f.protocol = protocol;
  f.expected_weekly_requests = weekly_popularity;
  return f;
}

// A catalog of `files`, each indexed by its position.
workload::Catalog catalog_of(std::vector<workload::FileInfo> files) {
  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i].index = static_cast<workload::FileIndex>(i);
  }
  return workload::Catalog(std::move(files));
}

// A pool's one owner callback: every terminal result in report order, by
// file index, with the simulator's pending-event count at the report.
struct PoolReports {
  struct Report {
    workload::FileIndex file;
    proto::DownloadResult result;
    std::size_t pending_events;
  };
  cloud::PreDownloaderPool::DoneFn owner(const sim::Simulator& sim) {
    return [this, &sim](workload::FileIndex file,
                        const proto::DownloadResult& result) {
      reports.push_back({file, result, sim.pending_count()});
    };
  }
  std::vector<workload::FileIndex> files() const {
    std::vector<workload::FileIndex> out;
    for (const Report& r : reports) out.push_back(r.file);
    return out;
  }
  std::vector<Report> reports;
};

// ---------------------------------------------------------------------------
// CircuitBreaker: the three-state machine under simulated time.

class CircuitBreakerTest : public ::testing::Test {
 protected:
  CircuitBreakerTest() {
    config.failure_threshold = 3;
    config.window = 10 * kMinute;
    config.open_duration = 5 * kMinute;
    config.half_open_probes = 2;
  }

  void trip(core::CircuitBreaker& b) {
    for (std::uint32_t i = 0; i < config.failure_threshold; ++i) {
      b.record_failure();
    }
  }

  sim::Simulator sim;
  core::CircuitBreaker::Config config;
};

TEST_F(CircuitBreakerTest, TripsAtThresholdAndRefuses) {
  core::CircuitBreaker b(sim, config);
  EXPECT_EQ(b.state(), core::CircuitBreaker::State::kClosed);
  b.record_failure();
  b.record_failure();
  EXPECT_EQ(b.state(), core::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(b.allow());
  b.record_failure();
  EXPECT_EQ(b.state(), core::CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.times_opened(), 1u);
  EXPECT_FALSE(b.allow());
  EXPECT_EQ(b.refusals(), 1u);
}

TEST_F(CircuitBreakerTest, SlidingWindowPrunesOldFailures) {
  core::CircuitBreaker b(sim, config);
  b.record_failure();
  b.record_failure();
  sim.run_until(11 * kMinute);  // both failures age out of the window
  b.record_failure();
  EXPECT_EQ(b.state(), core::CircuitBreaker::State::kClosed);
  b.record_failure();
  b.record_failure();
  EXPECT_EQ(b.state(), core::CircuitBreaker::State::kOpen);
}

TEST_F(CircuitBreakerTest, RecoversThroughHalfOpenProbes) {
  core::CircuitBreaker b(sim, config);
  trip(b);
  EXPECT_FALSE(b.allow());
  sim.run_until(6 * kMinute);  // past the cool-off
  EXPECT_TRUE(b.allow());
  EXPECT_EQ(b.state(), core::CircuitBreaker::State::kHalfOpen);
  b.record_success();
  EXPECT_EQ(b.state(), core::CircuitBreaker::State::kHalfOpen);
  // Each probe outcome must correspond to an admitted probe: a success
  // that nobody was granted a slot for does not count toward recovery.
  EXPECT_TRUE(b.allow());
  b.record_success();
  EXPECT_EQ(b.state(), core::CircuitBreaker::State::kClosed);
}

TEST_F(CircuitBreakerTest, HalfOpenFailureReopensImmediately) {
  core::CircuitBreaker b(sim, config);
  trip(b);
  sim.run_until(6 * kMinute);
  EXPECT_TRUE(b.allow());
  b.record_failure();
  EXPECT_EQ(b.state(), core::CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.times_opened(), 2u);
  EXPECT_FALSE(b.allow());
}

TEST_F(CircuitBreakerTest, HalfOpenFailureDoublesCooldownUpToCap) {
  config.max_open_duration = 18 * kMinute;
  core::CircuitBreaker b(sim, config);
  trip(b);
  EXPECT_EQ(b.cooldown(), 5 * kMinute);

  // Every failed probe round doubles the cool-off: 5 -> 10 -> 18 (capped).
  SimTime t = 0;
  const SimTime expected[] = {10 * kMinute, 18 * kMinute, 18 * kMinute};
  for (SimTime next : expected) {
    t += b.cooldown() + kMinute;
    sim.run_until(t);
    ASSERT_TRUE(b.allow());  // half-open probe
    b.record_failure();
    EXPECT_EQ(b.state(), core::CircuitBreaker::State::kOpen);
    EXPECT_EQ(b.cooldown(), next);
  }

  // A successful recovery resets the backoff to the base cool-off.
  t += b.cooldown() + kMinute;
  sim.run_until(t);
  for (std::uint32_t i = 0; i < config.half_open_probes; ++i) {
    ASSERT_TRUE(b.allow());
    b.record_success();
  }
  EXPECT_EQ(b.state(), core::CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.cooldown(), config.open_duration);

  // A fresh trip from CLOSED starts from the base cool-off again, not the
  // doubled one.
  trip(b);
  EXPECT_EQ(b.cooldown(), config.open_duration);
}

TEST_F(CircuitBreakerTest, ConcurrentProbesAreCappedAndNotDoubleCounted) {
  core::CircuitBreaker b(sim, config);
  trip(b);
  sim.run_until(6 * kMinute);

  // Only half_open_probes (2) concurrent probes may be admitted; the third
  // request is refused while both are still in flight.
  EXPECT_TRUE(b.allow());
  EXPECT_TRUE(b.allow());
  EXPECT_EQ(b.probes_inflight(), 2u);
  const std::uint64_t refusals_before = b.refusals();
  EXPECT_FALSE(b.allow());
  EXPECT_EQ(b.refusals(), refusals_before + 1);

  // Successes without an admitted probe slot must not count: the breaker
  // needs half_open_probes outcomes from ADMITTED probes to close.
  b.record_success();
  EXPECT_EQ(b.state(), core::CircuitBreaker::State::kHalfOpen);
  b.record_success();
  EXPECT_EQ(b.state(), core::CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.probes_inflight(), 0u);
}

TEST_F(CircuitBreakerTest, ReleaseProbeFreesASlotWithoutJudging) {
  core::CircuitBreaker b(sim, config);
  trip(b);
  sim.run_until(6 * kMinute);
  EXPECT_TRUE(b.allow());
  EXPECT_TRUE(b.allow());
  EXPECT_FALSE(b.allow());
  // The first probe ends with a source-model failure (says nothing about
  // the substrate): its slot is released, no state change.
  b.release_probe();
  EXPECT_EQ(b.state(), core::CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(b.probes_inflight(), 1u);
  // The freed slot admits a new probe; two real successes then close.
  EXPECT_TRUE(b.allow());
  b.record_success();
  b.record_success();
  EXPECT_EQ(b.state(), core::CircuitBreaker::State::kClosed);
}

// ---------------------------------------------------------------------------
// DownloadTask: abort / external failure / checksum-verify retries.

class TaskFaultTest : public ::testing::Test {
 protected:
  // A fixed-rate source (same shape as proto_download_test's FakeSource).
  class FixedSource final : public proto::Source {
   public:
    explicit FixedSource(Rate rate, proto::Protocol protocol)
        : rate_(rate), protocol_(protocol) {}
    // Test-only source; never checkpointed.
    void save(snapshot::SnapshotWriter&) const override {}
    Rate current_rate() const override { return rate_; }
    double traffic_factor() const override { return 1.0; }
    proto::Protocol protocol() const override { return protocol_; }

   private:
    Rate rate_;
    proto::Protocol protocol_;
  };

  std::unique_ptr<FixedSource> source(Rate rate, proto::Protocol protocol) {
    return std::make_unique<FixedSource>(rate, protocol);
  }

  sim::Simulator sim;
  net::Network net{sim};
  Rng rng{17};
  int calls = 0;
  std::optional<proto::DownloadResult> result;

  proto::DownloadTask::DoneFn capture() {
    return [this](const proto::DownloadResult& r) {
      ++calls;
      result = r;
    };
  }
};

TEST_F(TaskFaultTest, AbortFiresOnceAndRemovesFlow) {
  proto::DownloadTask task(sim, net, source(100.0, proto::Protocol::kHttp),
                           1 << 20, {}, capture());
  task.start(rng);
  sim.run_until(kMinute);
  EXPECT_EQ(net.active_flow_count(), 1u);
  task.abort();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(result->cause, proto::FailureCause::kAborted);
  EXPECT_EQ(net.active_flow_count(), 0u);
  EXPECT_FALSE(task.running());
  task.abort();  // idempotent: the callback must not fire again
  sim.run();
  EXPECT_EQ(calls, 1);
}

TEST_F(TaskFaultTest, FailExternallyReportsCauseAndRemovesFlow) {
  proto::DownloadTask task(sim, net, source(100.0, proto::Protocol::kHttp),
                           1 << 20, {}, capture());
  task.start(rng);
  sim.run_until(kMinute);
  task.fail_externally(proto::FailureCause::kCrash);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(result->success);
  EXPECT_EQ(result->cause, proto::FailureCause::kCrash);
  EXPECT_EQ(net.active_flow_count(), 0u);
  task.fail_externally(proto::FailureCause::kSystemBug);  // already finished
  sim.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(result->cause, proto::FailureCause::kCrash);
}

TEST_F(TaskFaultTest, DestructionAfterStartNeverFiresCallback) {
  {
    proto::DownloadTask task(sim, net, source(100.0, proto::Protocol::kHttp),
                             1 << 20, {}, capture());
    task.start(rng);
    sim.run_until(kMinute);
  }
  sim.run();
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(net.active_flow_count(), 0u);
}

TEST_F(TaskFaultTest, P2pChecksumFailureResumesFromPieceHashes) {
  // 100 KB at 1000 B/s with certain corruption: round 1 moves the whole
  // file (100 s) and salvages 90%; rounds 2 and 3 re-fetch a tenth of the
  // previous round (10 s, 1 s). After kMaxChecksumRetries (2) the attempt
  // fails having verified all but the last corrupt sliver.
  proto::DownloadTask::Config cfg;
  cfg.corruption_prob = 1.0;
  proto::DownloadTask task(sim, net,
                           source(1000.0, proto::Protocol::kBitTorrent),
                           100000, cfg, capture());
  task.start(rng);
  sim.run();
  ASSERT_EQ(calls, 1);
  EXPECT_FALSE(result->success);
  EXPECT_EQ(result->cause, proto::FailureCause::kChecksumMismatch);
  EXPECT_EQ(result->checksum_retries, 2u);
  EXPECT_EQ(result->bytes_downloaded, 99000u);
  // Traffic counts verified AND discarded bytes: 99000 + (10000+1000+1000).
  EXPECT_EQ(result->traffic_bytes, 111000u);
  EXPECT_EQ(result->finished_at, 111 * kSec);
}

TEST_F(TaskFaultTest, HttpChecksumFailureRestartsWholeFile) {
  // No piece hashes: every corrupt round discards the full file.
  proto::DownloadTask::Config cfg;
  cfg.corruption_prob = 1.0;
  proto::DownloadTask task(sim, net, source(1000.0, proto::Protocol::kHttp),
                           100000, cfg, capture());
  task.start(rng);
  sim.run();
  ASSERT_EQ(calls, 1);
  EXPECT_FALSE(result->success);
  EXPECT_EQ(result->cause, proto::FailureCause::kChecksumMismatch);
  EXPECT_EQ(result->checksum_retries, 2u);
  EXPECT_EQ(result->bytes_downloaded, 0u);
  EXPECT_EQ(result->traffic_bytes, 300000u);  // three full discarded rounds
  EXPECT_EQ(result->finished_at, 300 * kSec);
}

TEST_F(TaskFaultTest, CleanTransferNeedsNoChecksumRetry) {
  proto::DownloadTask::Config cfg;
  cfg.corruption_prob = 0.0;
  proto::DownloadTask task(sim, net, source(1000.0, proto::Protocol::kHttp),
                           100000, cfg, capture());
  task.start(rng);
  sim.run();
  ASSERT_EQ(calls, 1);
  EXPECT_TRUE(result->success);
  EXPECT_EQ(result->checksum_retries, 0u);
  EXPECT_EQ(result->finished_at, 100 * kSec);
}

// ---------------------------------------------------------------------------
// PreDownloaderPool: crash retry/backoff, front-requeue, retry exhaustion.

class PoolFaultTest : public ::testing::Test {
 protected:
  // A pool of `vms` VMs over a catalog of `files` (file i at index i).
  std::unique_ptr<cloud::PreDownloaderPool> make_pool(
      std::size_t vms, std::vector<workload::FileInfo> files) {
    cc.predownloader_count = vms;
    catalog.emplace(catalog_of(std::move(files)));
    return std::make_unique<cloud::PreDownloaderPool>(
        sim, net, *catalog, cc, sources, rng, reported.owner(sim));
  }

  sim::Simulator sim;
  net::Network net{sim};
  Rng rng{11};
  Rng crash_rng{99};
  cloud::CloudConfig cc;
  // 1000 B/s deterministic HTTP origins: a 600 KB file takes exactly 600 s.
  proto::SourceParams sources = deterministic_server_sources(1000.0);
  std::optional<workload::Catalog> catalog;
  PoolReports reported;
};

TEST_F(PoolFaultTest, CrashedTaskRetriesAfterExponentialBackoff) {
  auto pool = make_pool(1, {make_file("a", 600000, proto::Protocol::kHttp)});
  pool->submit(0);
  sim.run_until(2 * kMinute);
  EXPECT_EQ(pool->inject_crashes(1.0, crash_rng), 1u);
  EXPECT_EQ(pool->crash_count(), 1u);
  EXPECT_TRUE(reported.reports.empty());  // retried, not reported
  sim.run();
  ASSERT_EQ(reported.files(), std::vector<workload::FileIndex>{0});
  const proto::DownloadResult& result = reported.reports[0].result;
  EXPECT_TRUE(result.success);
  EXPECT_EQ(pool->retry_count(), 1u);
  EXPECT_EQ(pool->retries_exhausted(), 0u);
  // First backoff is kRetryBackoffBase (1 min): crash at 120 s, restart
  // at 180 s, 600 s of transfer.
  EXPECT_EQ(result.started_at, 180 * kSec);
  EXPECT_EQ(result.finished_at, 780 * kSec);
}

TEST_F(PoolFaultTest, TaskDiesInItsDoneCallback) {
  // A finished task is destroyed when its done callback returns, so the
  // last callback leaves nothing queued: no deferred delete, no tick.
  auto pool = make_pool(1, {make_file("a", 60000, proto::Protocol::kHttp),
                            make_file("b", 60000, proto::Protocol::kHttp)});
  pool->submit(0);
  pool->submit(1);
  sim.run();
  ASSERT_EQ(reported.files(), (std::vector<workload::FileIndex>{0, 1}));
  for (const PoolReports::Report& r : reported.reports) {
    EXPECT_TRUE(r.result.success);
  }
  EXPECT_EQ(reported.reports[1].pending_events, 0u);
  EXPECT_EQ(pool->active(), 0u);
  EXPECT_EQ(pool->pending_event_count(), 0u);
}

TEST_F(PoolFaultTest, CrashedTaskRequeuesAtFrontOfFifo) {
  auto pool = make_pool(1, {make_file("a", 600000, proto::Protocol::kHttp),
                            make_file("b", 600000, proto::Protocol::kHttp),
                            make_file("c", 600000, proto::Protocol::kHttp)});
  pool->submit(0);  // a: active
  pool->submit(1);  // b: queued
  pool->submit(2);  // c: queued behind b
  sim.run_until(2 * kMinute);
  EXPECT_EQ(pool->inject_crashes(1.0, crash_rng), 1u);  // kills a
  sim.run();
  // a's backoff expires while b holds the only VM, so a re-enters the
  // queue at the FRONT: it finishes before c despite the crash.
  EXPECT_EQ(reported.files(), (std::vector<workload::FileIndex>{1, 0, 2}));
}

TEST_F(PoolFaultTest, RetryBudgetExhaustionReportsCrash) {
  cc.predownload_max_retries = 0;
  auto pool = make_pool(1, {make_file("a", 600000, proto::Protocol::kHttp)});
  pool->submit(0);
  sim.run_until(2 * kMinute);
  pool->inject_crashes(1.0, crash_rng);
  sim.run();
  ASSERT_EQ(reported.files(), std::vector<workload::FileIndex>{0});
  const proto::DownloadResult& result = reported.reports[0].result;
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.cause, proto::FailureCause::kCrash);
  EXPECT_EQ(pool->retry_count(), 0u);
  EXPECT_EQ(pool->retries_exhausted(), 1u);
}

TEST_F(PoolFaultTest, PersistentCorruptionExhaustsPoolRetries) {
  auto pool = make_pool(1, {make_file("a", 60000, proto::Protocol::kHttp)});
  pool->set_corruption_prob(1.0);
  pool->submit(0);
  sim.run();
  ASSERT_EQ(reported.files(), std::vector<workload::FileIndex>{0});
  const proto::DownloadResult& result = reported.reports[0].result;
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.cause, proto::FailureCause::kChecksumMismatch);
  // Each attempt burns its own checksum retries, then the pool retries the
  // whole attempt up to predownload_max_retries times.
  EXPECT_EQ(result.checksum_retries, 2u);
  EXPECT_EQ(pool->retry_count(), 3u);
  EXPECT_EQ(pool->retries_exhausted(), 1u);
}

// ---------------------------------------------------------------------------
// SmartAp: crash/reboot cycles with protocol-dependent resume.

class ApCrashTest : public ::testing::Test {
 protected:
  ApCrashTest() {
    config.bug_failure_prob = 0.0;  // crashes are injected explicitly
    // P2P sources with a guaranteed seedbox far above the cap we pass via
    // rate_restriction, so swarm randomness never affects the timing.
    sources.server.rate_median = 1000.0;
    sources.server.rate_sigma = 0.0;
    sources.server.connection_break_prob = 0.0;
    sources.swarm.base_seed_mean = 50.0;
    sources.swarm.seeds_per_popularity = 0.0;
    sources.swarm.leechers_per_popularity = 0.0;
    sources.swarm.seedbox_scale = 1e-9;  // P(seedbox) == 1
    sources.swarm.seedbox_rate_lo = 1e9;
    sources.swarm.seedbox_rate_hi = 1e9;
  }

  ap::SmartAp make_ap() { return ap::SmartAp(sim, net, config, sources, rng); }

  sim::Simulator sim;
  net::Network net{sim};
  Rng rng{7};
  ap::SmartApConfig config;
  proto::SourceParams sources;
  int calls = 0;
  std::optional<proto::DownloadResult> result;

  ap::SmartAp::DoneFn capture() {
    return [this](const proto::DownloadResult& r) {
      ++calls;
      result = r;
    };
  }
};

TEST_F(ApCrashTest, HttpTaskRestartsFromZeroAfterCrash) {
  ap::SmartAp ap = make_ap();
  // 600 KB at 1000 B/s = 600 s; crash at 290 s loses all partial bytes.
  ap.predownload(make_file("h", 600000, proto::Protocol::kHttp),
                 net::kUnlimitedRate, capture());
  sim.run_until(290 * kSec);
  ap.crash();
  EXPECT_TRUE(ap.rebooting());
  EXPECT_EQ(calls, 0);
  sim.run();
  ASSERT_EQ(calls, 1);
  EXPECT_TRUE(result->success);
  EXPECT_EQ(ap.crash_count(), 1u);
  EXPECT_EQ(ap.resume_count(), 1u);
  // 290 s lost + 45 s reboot + a full 600 s restart.
  EXPECT_NEAR(to_seconds(result->finished_at), 935.0, 0.1);
  EXPECT_EQ(result->started_at, 0);  // user-visible start is the request
  EXPECT_EQ(result->bytes_downloaded, 600000u);
  // Traffic includes the 290 KB the interrupted attempt moved.
  EXPECT_GT(result->traffic_bytes, 600000u);
}

TEST_F(ApCrashTest, P2pTaskKeepsPersistedPiecesAcrossCrash) {
  ap::SmartAp ap = make_ap();
  // Restriction caps the seedbox swarm at exactly 1000 B/s.
  ap.predownload(make_file("p", 600000, proto::Protocol::kBitTorrent, 100.0),
                 1000.0, capture());
  sim.run_until(290 * kSec);
  ap.crash();
  sim.run();
  ASSERT_EQ(calls, 1);
  EXPECT_TRUE(result->success);
  // ~290 KB survive on disk; only the remainder is re-fetched after the
  // 45 s reboot: 290 + 45 + 310 = 645 s (vs 935 s for the HTTP restart).
  EXPECT_NEAR(to_seconds(result->finished_at), 645.0, 1.0);
  EXPECT_EQ(result->bytes_downloaded, 600000u);
}

TEST_F(ApCrashTest, CrashBudgetExhaustionFailsWithCrashCause) {
  ap::SmartAp ap = make_ap();
  ap.predownload(make_file("p", 600000, proto::Protocol::kBitTorrent, 100.0),
                 1000.0, capture());
  // Crash once a minute: the first crash lands after 60 s of transfer,
  // each later one 15 s after the 45 s reboot. The task survives
  // kMaxCrashResumes (5) of them.
  static_assert(ap::SmartAp::kMaxCrashResumes == 5);
  for (int crash = 1; crash <= 5; ++crash) {
    sim.run_until(crash * kMinute);
    ap.crash();
    EXPECT_EQ(calls, 0);
  }
  sim.run_until(6 * kMinute);
  ap.crash();
  ASSERT_EQ(calls, 1);  // doomed immediately, not after the reboot
  EXPECT_FALSE(result->success);
  EXPECT_EQ(result->cause, proto::FailureCause::kCrash);
  EXPECT_EQ(result->finished_at, 6 * kMinute);
  EXPECT_EQ(ap.crash_count(), 6u);
  // P2P pieces persist: 60 s, then five 15 s stretches at 1000 B/s.
  EXPECT_NEAR(static_cast<double>(result->bytes_downloaded), 135000.0, 2000.0);
  sim.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ap.active(), 0u);
}

TEST_F(ApCrashTest, RequestDuringRebootIsQueuedUntilRecovery) {
  ap::SmartAp ap = make_ap();
  sim.run_until(10 * kSec);
  ap.crash();  // router down with nothing running
  sim.run_until(20 * kSec);
  ASSERT_TRUE(ap.rebooting());
  ap.predownload(make_file("q", 60000, proto::Protocol::kHttp),
                 net::kUnlimitedRate, capture());
  EXPECT_EQ(calls, 0);
  sim.run();
  ASSERT_EQ(calls, 1);
  EXPECT_TRUE(result->success);
  EXPECT_EQ(result->started_at, 20 * kSec);  // queued-at time, not reboot end
  // Starts when the reboot ends at 55 s; 60 s of transfer.
  EXPECT_NEAR(to_seconds(result->finished_at), 115.0, 0.1);
  EXPECT_EQ(ap.resume_count(), 0u);  // queued work is not a crash resume
}

// ---------------------------------------------------------------------------
// UploadScheduler: health-checked failover and degraded-mode admission.

class SchedulerFaultTest : public ::testing::Test {
 protected:
  std::unique_ptr<cloud::UploadScheduler> make_scheduler() {
    return std::make_unique<cloud::UploadScheduler>(net, cc, rng);
  }

  sim::Simulator sim;
  net::Network net{sim};
  Rng rng{23};
  cloud::CloudConfig cc;
};

TEST_F(SchedulerFaultTest, UnhealthyHomeClusterFailsOver) {
  auto uploads = make_scheduler();
  uploads->set_cluster_healthy(net::Isp::kTelecom, false);
  EXPECT_TRUE(uploads->degraded());
  const cloud::FetchPlan plan = uploads->plan_fetch(
      net::Isp::kTelecom, kbps_to_rate(500.0), workload::PopularityClass::kPopular);
  EXPECT_TRUE(plan.admitted);
  EXPECT_NE(plan.cluster, net::Isp::kTelecom);
  EXPECT_FALSE(plan.privileged);  // the failover path crosses ISPs
  uploads->release(plan);
  uploads->set_cluster_healthy(net::Isp::kTelecom, true);
  EXPECT_FALSE(uploads->degraded());
}

TEST_F(SchedulerFaultTest, DegradedModeShedsUnpopularLoadFirst) {
  cc.degraded_admission = true;
  cc.shed_headroom = 1.1;  // shed whenever any cluster is out
  auto uploads = make_scheduler();
  uploads->set_cluster_healthy(net::Isp::kTelecom, false);
  const cloud::FetchPlan unpop = uploads->plan_fetch(
      net::Isp::kUnicom, kbps_to_rate(500.0),
      workload::PopularityClass::kUnpopular);
  EXPECT_FALSE(unpop.admitted);
  EXPECT_EQ(uploads->shed_count(), 1u);
  EXPECT_EQ(uploads->rejected_count(workload::PopularityClass::kUnpopular), 1u);
  // Popular load is not shed: it rides the surviving clusters.
  const cloud::FetchPlan pop = uploads->plan_fetch(
      net::Isp::kUnicom, kbps_to_rate(500.0),
      workload::PopularityClass::kPopular);
  EXPECT_TRUE(pop.admitted);
  EXPECT_EQ(uploads->shed_count(), 1u);
}

TEST_F(SchedulerFaultTest, DefaultPolicyNeverSheds) {
  auto uploads = make_scheduler();  // degraded_admission off
  uploads->set_cluster_healthy(net::Isp::kTelecom, false);
  const cloud::FetchPlan plan = uploads->plan_fetch(
      net::Isp::kUnicom, kbps_to_rate(500.0),
      workload::PopularityClass::kUnpopular);
  EXPECT_TRUE(plan.admitted);  // home cluster is healthy; privileged path
  EXPECT_TRUE(plan.privileged);
  EXPECT_EQ(uploads->shed_count(), 0u);
}

TEST_F(SchedulerFaultTest, HighlyPopularIsNeverRejectedUnderSaturation) {
  // 100 Mbps total -> every cluster's headroom fits under the 50 Mbps
  // per-fetch cap, so one privileged fetch drains each cluster completely.
  cc.total_upload_capacity = mbps_to_rate(100.0);
  cc.degraded_admission = true;
  auto uploads = make_scheduler();
  for (net::Isp isp : net::kMajorIsps) {
    const cloud::FetchPlan drain = uploads->plan_fetch(
        isp, mbps_to_rate(50.0), workload::PopularityClass::kPopular);
    ASSERT_TRUE(drain.admitted);
    ASSERT_NEAR(uploads->cluster_reserved(isp), uploads->cluster_capacity(isp),
                1.0);
  }
  // A merely popular fetch is rejected at peak, exactly as in §4.2 ...
  const cloud::FetchPlan pop = uploads->plan_fetch(
      net::Isp::kUnicom, kbps_to_rate(500.0),
      workload::PopularityClass::kPopular);
  EXPECT_FALSE(pop.admitted);
  EXPECT_EQ(uploads->rejected_count(workload::PopularityClass::kPopular), 1u);
  // ... but a highly-popular one is admitted oversubscribed at the floor.
  const cloud::FetchPlan hot = uploads->plan_fetch(
      net::Isp::kUnicom, kbps_to_rate(500.0),
      workload::PopularityClass::kHighlyPopular);
  EXPECT_TRUE(hot.admitted);
  EXPECT_TRUE(hot.oversubscribed);
  EXPECT_NEAR(hot.rate, std::min(cc.admission_floor, kbps_to_rate(500.0)), 1e-6);
  EXPECT_EQ(uploads->rejected_count(workload::PopularityClass::kHighlyPopular),
            0u);
  EXPECT_EQ(uploads->oversubscribed_count(), 1u);
}

// ---------------------------------------------------------------------------
// FaultInjector: every FaultKind fires and recovers on schedule.

class InjectorTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  net::Network net{sim};
  Rng rng{5};
  Rng injector_rng{41};
  cloud::CloudConfig cc;
};

TEST_F(InjectorTest, UploadClusterOutageTogglesHealthAndCapacity) {
  cloud::UploadScheduler uploads(net, cc, rng);
  const net::LinkId link = uploads.cluster_link(net::Isp::kTelecom);
  const Rate full = net.link_capacity(link);
  ASSERT_GT(full, 0.0);

  fault::FaultInjector injector(sim, injector_rng);
  injector.attach_uploads(&uploads);
  injector.attach_network(&net);
  fault::FaultPlan plan;
  plan.add({.kind = fault::FaultKind::kUploadClusterOutage,
            .start = kHour,
            .duration = 2 * kHour,
            .isp = net::Isp::kTelecom});
  injector.load(plan);

  sim.run_until(90 * kMinute);  // mid-outage
  EXPECT_FALSE(uploads.cluster_healthy(net::Isp::kTelecom));
  EXPECT_EQ(net.link_capacity(link), 0.0);
  sim.run();
  EXPECT_TRUE(uploads.cluster_healthy(net::Isp::kTelecom));
  EXPECT_EQ(net.link_capacity(link), full);
  EXPECT_EQ(injector.stats(fault::FaultKind::kUploadClusterOutage).fired, 1u);
  EXPECT_EQ(injector.stats(fault::FaultKind::kUploadClusterOutage).recovered,
            1u);
}

TEST_F(InjectorTest, LinkDegradationFlapsAndRecovers) {
  cloud::UploadScheduler uploads(net, cc, rng);
  const net::LinkId link = uploads.cluster_link(net::Isp::kUnicom);
  const Rate full = net.link_capacity(link);

  fault::FaultInjector injector(sim, injector_rng);
  injector.attach_uploads(&uploads);
  injector.attach_network(&net);
  fault::FaultPlan plan;
  plan.add({.kind = fault::FaultKind::kLinkDegradation,
            .start = kHour,
            .duration = kHour,
            .severity = 0.25,
            .isp = net::Isp::kUnicom,
            .flap_period = 10 * kMinute});
  injector.load(plan);

  sim.run_until(65 * kMinute);  // first degraded phase
  EXPECT_NEAR(net.link_capacity(link), 0.25 * full, 1e-6);
  sim.run_until(75 * kMinute);  // flapped back up
  EXPECT_NEAR(net.link_capacity(link), full, 1e-6);
  sim.run_until(85 * kMinute);  // degraded again
  EXPECT_NEAR(net.link_capacity(link), 0.25 * full, 1e-6);
  sim.run();
  EXPECT_NEAR(net.link_capacity(link), full, 1e-6);  // window ended
  EXPECT_EQ(injector.stats(fault::FaultKind::kLinkDegradation).recovered, 1u);
}

TEST_F(InjectorTest, StorageNodeLossEvictsColdestEntries) {
  const workload::Catalog catalog = sized_catalog(std::vector<Bytes>(10, 1));
  cloud::StoragePool storage(catalog, 1000);
  for (workload::FileIndex f = 0; f < 10; ++f) storage.insert(f);
  // Touch 0..6 so 7..9 are the coldest (the lost node's shard).
  for (workload::FileIndex f = 0; f < 7; ++f) {
    EXPECT_TRUE(storage.lookup(f));
  }

  fault::FaultInjector injector(sim, injector_rng);
  injector.attach_storage(&storage);
  fault::FaultPlan plan;
  plan.add({.kind = fault::FaultKind::kStorageNodeLoss,
            .start = kHour,
            .severity = 0.3});
  injector.load(plan);
  sim.run();

  EXPECT_EQ(storage.fault_evictions(), 3u);
  EXPECT_EQ(storage.file_count(), 7u);
  for (workload::FileIndex f = 0; f < 7; ++f) EXPECT_TRUE(storage.contains(f));
  for (workload::FileIndex f = 7; f < 10; ++f) {
    EXPECT_FALSE(storage.contains(f));
  }
  EXPECT_EQ(injector.stats(fault::FaultKind::kStorageNodeLoss).fired, 1u);
  EXPECT_EQ(injector.stats(fault::FaultKind::kStorageNodeLoss).recovered, 1u);
}

TEST_F(InjectorTest, ChecksumCorruptionWindowSetsAndClearsProbability) {
  proto::SourceParams sources = deterministic_server_sources(1000.0);
  const workload::Catalog catalog =
      catalog_of({make_file("a", 60000, proto::Protocol::kHttp)});
  PoolReports reported;
  cloud::PreDownloaderPool pool(sim, net, catalog, cc, sources, rng,
                                reported.owner(sim));

  fault::FaultInjector injector(sim, injector_rng);
  injector.attach_predownloaders(&pool);
  fault::FaultPlan plan;
  plan.add({.kind = fault::FaultKind::kChecksumCorruption,
            .start = kHour,
            .duration = kHour,
            .rate = 0.3});
  injector.load(plan);

  EXPECT_EQ(pool.corruption_prob(), 0.0);
  sim.run_until(90 * kMinute);
  EXPECT_EQ(pool.corruption_prob(), 0.3);
  sim.run();
  EXPECT_EQ(pool.corruption_prob(), 0.0);
  EXPECT_EQ(injector.stats(fault::FaultKind::kChecksumCorruption).fired, 1u);
  EXPECT_EQ(injector.stats(fault::FaultKind::kChecksumCorruption).recovered,
            1u);
}

TEST_F(InjectorTest, VmCrashWindowCrashesActiveTasksUntilItEnds) {
  // Slow deterministic origins (10 B/s) keep four tasks alive through the
  // whole crash window; a certain per-tick crash probability then forces
  // each task through every retry and into kCrash.
  proto::SourceParams sources = deterministic_server_sources(10.0);
  cc.predownloader_count = 8;
  std::vector<workload::FileInfo> files;
  for (int i = 0; i < 4; ++i) {
    files.push_back(
        make_file("v" + std::to_string(i), 1000000, proto::Protocol::kHttp));
  }
  const workload::Catalog catalog = catalog_of(std::move(files));
  PoolReports reported;
  cloud::PreDownloaderPool pool(sim, net, catalog, cc, sources, rng,
                                reported.owner(sim));
  for (workload::FileIndex f = 0; f < 4; ++f) pool.submit(f);

  fault::FaultInjector injector(sim, injector_rng);
  injector.attach_predownloaders(&pool);
  fault::FaultPlan plan;
  plan.add({.kind = fault::FaultKind::kVmCrash,
            .start = 10 * kMinute,
            .duration = 30 * kMinute,
            .rate = 1000.0});  // certain crash at every 5-minute tick
  injector.load(plan);
  sim.run();

  // Ticks at 15/20/25/30 min kill all four tasks four times each: three
  // pool retries, then the budget is exhausted.
  std::vector<workload::FileIndex> reported_files = reported.files();
  std::sort(reported_files.begin(), reported_files.end());
  EXPECT_EQ(reported_files, (std::vector<workload::FileIndex>{0, 1, 2, 3}));
  for (const PoolReports::Report& r : reported.reports) {
    EXPECT_EQ(r.result.cause, proto::FailureCause::kCrash) << r.file;
  }
  EXPECT_EQ(pool.crash_count(), 16u);
  EXPECT_EQ(pool.retry_count(), 12u);
  EXPECT_EQ(pool.retries_exhausted(), 4u);
  EXPECT_EQ(injector.stats(fault::FaultKind::kVmCrash).fired, 16u);
  EXPECT_EQ(injector.stats(fault::FaultKind::kVmCrash).recovered, 1u);
}

TEST_F(InjectorTest, ApCrashWindowRebootsTheRouterRepeatedly) {
  ap::SmartApConfig ap_config;
  ap_config.bug_failure_prob = 0.0;
  proto::SourceParams sources = deterministic_server_sources(1000.0);
  ap::SmartAp ap(sim, net, ap_config, sources, rng);

  fault::FaultInjector injector(sim, injector_rng);
  injector.attach_ap(&ap);
  fault::FaultPlan plan;
  plan.add({.kind = fault::FaultKind::kApCrash,
            .start = 5 * kMinute,
            .duration = 20 * kMinute,
            .rate = 1000.0});
  injector.load(plan);
  sim.run();

  // Ticks at 10/15/20/25 min each find the router back up (45 s reboot)
  // and crash it again.
  EXPECT_EQ(ap.crash_count(), 4u);
  EXPECT_FALSE(ap.rebooting());
  EXPECT_EQ(injector.stats(fault::FaultKind::kApCrash).fired, 4u);
  EXPECT_EQ(injector.stats(fault::FaultKind::kApCrash).recovered, 1u);
}

// ---------------------------------------------------------------------------
// Executor: circuit-breaker rerouting between substrates.

class ExecutorBreakerTest : public ::testing::Test {
 protected:
  ExecutorBreakerTest() : net(sim), rng(31) {
    workload::CatalogParams cp;
    cp.num_files = 300;
    cp.total_weekly_requests = 2175;
    catalog = std::make_unique<workload::Catalog>(cp, rng);

    cloud_config.total_upload_capacity = mbps_to_rate(100.0);
    cloud_config.dynamics_prob = 0.0;
    cloud = std::make_unique<cloud::XuanfengCloud>(sim, net, *catalog, sources,
                                                   cloud_config, rng);

    ap::SmartApConfig ap_config;
    ap_config.bug_failure_prob = 0.0;
    ap = std::make_unique<ap::SmartAp>(sim, net, ap_config, sources, rng);

    executor = std::make_unique<core::Executor>(
        sim, net, *catalog, *cloud, sources, core::RedirectorParams{}, rng);

    // threshold 1 + a long cool-off: one recorded failure pins the breaker
    // open for the whole test.
    breaker_config.failure_threshold = 1;
    breaker_config.open_duration = kWeek;
    cloud_breaker =
        std::make_unique<core::CircuitBreaker>(sim, breaker_config);
    ap_breaker = std::make_unique<core::CircuitBreaker>(sim, breaker_config);
    executor->set_substrate_breakers(cloud_breaker.get(), ap_breaker.get());
  }

  workload::WorkloadRecord request_for(workload::FileIndex file,
                                       const workload::User& user) {
    return {++next_task_, user.id, file, sim.now()};
  }

  workload::User make_user(net::Isp isp, Rate bw) {
    workload::User u;
    u.id = 1;
    u.isp = isp;
    u.access_bandwidth = bw;
    u.ip = "10.1.1.1";
    return u;
  }

  core::Decision route(core::Route r) {
    core::Decision d;
    d.route = r;
    return d;
  }

  sim::Simulator sim;
  net::Network net;
  Rng rng;
  proto::SourceParams sources;
  cloud::CloudConfig cloud_config;
  core::CircuitBreaker::Config breaker_config;
  std::unique_ptr<workload::Catalog> catalog;
  std::unique_ptr<cloud::XuanfengCloud> cloud;
  std::unique_ptr<ap::SmartAp> ap;
  std::unique_ptr<core::Executor> executor;
  std::unique_ptr<core::CircuitBreaker> cloud_breaker;
  std::unique_ptr<core::CircuitBreaker> ap_breaker;
  workload::TaskId next_task_ = 0;
};

TEST_F(ExecutorBreakerTest, OpenCloudBreakerReroutesToSmartAp) {
  cloud_breaker->record_failure();
  ASSERT_EQ(cloud_breaker->state(), core::CircuitBreaker::State::kOpen);
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(600));
  std::optional<core::ExecOutcome> outcome;
  executor->execute(route(core::Route::kCloud), request_for(0, user), user,
                    ap.get(), [&](const core::ExecOutcome& o) { outcome = o; });
  sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->route, core::Route::kSmartAp);
  EXPECT_TRUE(outcome->rerouted);
  EXPECT_EQ(executor->reroutes(), 1u);
}

TEST_F(ExecutorBreakerTest, OpenCloudBreakerWithoutApFallsToUserDevice) {
  cloud_breaker->record_failure();
  const workload::User user = make_user(net::Isp::kTelecom, kbps_to_rate(800));
  std::optional<core::ExecOutcome> outcome;
  executor->execute(route(core::Route::kCloud), request_for(0, user), user,
                    nullptr, [&](const core::ExecOutcome& o) { outcome = o; });
  sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->route, core::Route::kUserDevice);
  EXPECT_TRUE(outcome->rerouted);
}

TEST_F(ExecutorBreakerTest, OpenApBreakerReroutesToCloud) {
  ap_breaker->record_failure();
  cloud->warm_cache(catalog->file(0));
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(500));
  std::optional<core::ExecOutcome> outcome;
  executor->execute(route(core::Route::kSmartAp), request_for(0, user), user,
                    ap.get(), [&](const core::ExecOutcome& o) { outcome = o; });
  sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->route, core::Route::kCloud);
  EXPECT_TRUE(outcome->rerouted);
  EXPECT_TRUE(outcome->success);
}

TEST_F(ExecutorBreakerTest, ClosedBreakersLeaveRoutingUntouched) {
  cloud->warm_cache(catalog->file(0));
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(500));
  std::optional<core::ExecOutcome> outcome;
  executor->execute(route(core::Route::kCloud), request_for(0, user), user,
                    ap.get(), [&](const core::ExecOutcome& o) { outcome = o; });
  sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->route, core::Route::kCloud);
  EXPECT_FALSE(outcome->rerouted);
  EXPECT_EQ(executor->reroutes(), 0u);
  // The successful outcome fed the cloud breaker; it must stay closed.
  EXPECT_EQ(cloud_breaker->state(), core::CircuitBreaker::State::kClosed);
}

}  // namespace
}  // namespace odr
