// Tests for the cloud's building blocks: content DB, storage pool, and
// the upload scheduler with admission control.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cloud/content_db.h"
#include "cloud/storage_pool.h"
#include "cloud/upload_scheduler.h"
#include "net/isp.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "sized_catalog.h"
#include "snapshot/format.h"
#include "util/rng.h"

namespace odr::cloud {
namespace {

TEST(ContentDbTest, CountsTrailingWeekOnly) {
  ContentDb db(3);
  db.record_request(1, 0);
  db.record_request(1, kDay);
  db.record_request(1, 6 * kDay);
  EXPECT_DOUBLE_EQ(db.weekly_popularity(1, 6 * kDay), 3.0);
  // Past the trailing-week window, only the day-6 request remains.
  EXPECT_DOUBLE_EQ(db.weekly_popularity(1, 8 * kDay + kMinute), 1.0);
  EXPECT_DOUBLE_EQ(db.weekly_popularity(2, 8 * kDay + kMinute), 0.0);
}

TEST(ContentDbTest, ClassifyUsesPaperThresholds) {
  // Record and query times never decrease, as the class requires.
  ContentDb db(3);
  for (int i = 0; i < 6; ++i) db.record_request(1, i * kHour);
  EXPECT_EQ(db.classify(1, 6 * kHour), workload::PopularityClass::kUnpopular);
  db.record_request(1, 7 * kHour);
  EXPECT_EQ(db.classify(1, kDay), workload::PopularityClass::kPopular);
  for (int i = 0; i < 78; ++i) db.record_request(2, kDay + i * kMinute);
  EXPECT_EQ(db.classify(2, 2 * kDay), workload::PopularityClass::kPopular);
  for (int i = 0; i < 10; ++i) db.record_request(2, 2 * kDay + i);
  EXPECT_EQ(db.classify(2, 2 * kDay + kHour),
            workload::PopularityClass::kHighlyPopular);
}

TEST(ContentDbTest, WindowIncludesItsFirstInstant) {
  ContentDb db(2);
  db.record_request(0, kHour);
  // t == now - kWeek is inside the trailing week; one tick later it is not.
  EXPECT_DOUBLE_EQ(db.weekly_popularity(0, kHour + kWeek), 1.0);
  EXPECT_DOUBLE_EQ(db.weekly_popularity(0, kHour + kWeek + 1), 0.0);
}

// A random stream of records and queries at non-decreasing times over
// `files` files, checked against a count over every record so far.
class ContentDbStream {
 public:
  ContentDbStream(std::size_t files, std::uint64_t seed)
      : files_(files), rng_(seed) {}

  // Applies the next operation to every db in `dbs`; a query must agree
  // with the brute-force count in all of them.
  void step(const std::vector<ContentDb*>& dbs) {
    // Steps of up to two days, some of them zero: several weeks of stream
    // in a few hundred operations, with records sharing a time.
    if (rng_.bernoulli(0.7)) {
      now_ += static_cast<SimTime>(rng_.uniform_index(2 * kDay));
    }
    auto file = static_cast<workload::FileIndex>(rng_.uniform_index(files_));
    if (rng_.bernoulli(0.6)) {
      for (ContentDb* db : dbs) db->record_request(file, now_);
      log_.push_back({now_, file});
      return;
    }
    // Some queries ask for the file of a recent record exactly one week
    // after it, when that record sits on the window's first instant.
    if (!log_.empty() && rng_.bernoulli(0.3)) {
      const Record& recent = log_[log_.size() - 1 -
                                  rng_.uniform_index(std::min<std::size_t>(
                                      8, log_.size()))];
      now_ = std::max(now_, recent.time + kWeek);
      file = recent.file;
    }
    double expected = 0.0;
    for (const Record& r : log_) {
      if (r.file == file && r.time >= now_ - kWeek) expected += 1.0;
    }
    for (ContentDb* db : dbs) {
      ASSERT_DOUBLE_EQ(db->weekly_popularity(file, now_), expected)
          << "file " << file << " at " << now_;
    }
  }

 private:
  struct Record {
    SimTime time;
    workload::FileIndex file;
  };

  std::size_t files_;
  Rng rng_;
  SimTime now_ = -kWeek;
  std::vector<Record> log_;
};

TEST(ContentDbTest, RandomStreamMatchesBruteForceCount) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    ContentDb db(8);
    ContentDbStream stream(8, seed);
    for (int i = 0; i < 2000; ++i) {
      stream.step({&db});
      if (HasFatalFailure()) return;
    }
  }
}

// A content DB as a world checkpoints it: the counts and digests
// (section 1, as in the caches section), then the window's records
// (section 2, as in the cache window section).
std::string save_db(const ContentDb& db) {
  snapshot::SnapshotWriter w;
  w.begin_section(1, 1);
  db.save(w);
  w.end_section();
  w.begin_section(2, 1);
  db.save_window(w);
  w.end_section();
  return w.take();
}

void load_db(ContentDb& db, const std::string& bytes) {
  snapshot::SnapshotReader r(bytes);
  r.require_section(1, 1);
  db.load(r);
  r.end_section();
  r.require_section(2, 1);
  db.load_window(r);
  r.end_section();
}

// A file past the table throws std::out_of_range naming the file and the
// table's size, before expiry: at 9 days the day-0 record would expire.
void expect_refused_past_table(ContentDb& db,
                               const std::function<void()>& call) {
  const std::string before = save_db(db);
  try {
    call();
    ADD_FAILURE() << "a file past the table was taken";
  } catch (const std::out_of_range& e) {
    const std::string what(e.what());
    EXPECT_NE(what.find("file 3 of a 3-file catalog"), std::string::npos)
        << what;
  }
  EXPECT_EQ(save_db(db), before);
}

TEST(ContentDbTest, RecordRequestRefusesAFilePastTheTable) {
  ContentDb db(3);
  db.record_request(2, 0);
  expect_refused_past_table(db, [&] { db.record_request(3, 9 * kDay); });
}

TEST(ContentDbTest, WeeklyPopularityRefusesAFilePastTheTable) {
  ContentDb db(3);
  db.record_request(2, 0);
  expect_refused_past_table(db, [&] { db.weekly_popularity(3, 9 * kDay); });
}

TEST(ContentDbTest, SaveLoadMidStreamContinuesIdentically) {
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    SCOPED_TRACE(seed);
    ContentDb original(8);
    ContentDbStream stream(8, seed);
    for (int i = 0; i < 700; ++i) stream.step({&original});
    ContentDb restored(8);
    load_db(restored, save_db(original));
    EXPECT_EQ(save_db(restored), save_db(original));
    for (int i = 0; i < 1300; ++i) {
      stream.step({&original, &restored});
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(save_db(restored), save_db(original));
  }
}

TEST(ContentDbTest, LoadRejectsFileOutOfRange) {
  ContentDb wide(10);
  wide.record_request(7, 0);
  ContentDb narrow(5);
  try {
    load_db(narrow, save_db(wide));
    FAIL() << "loaded file 7 into a 5-file db";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_EQ(e.kind(), snapshot::SnapshotErrorKind::kCorrupt);
    EXPECT_NE(std::string(e.what()).find("names file 7 of 5"),
              std::string::npos)
        << e.what();
  }
}

TEST(ContentDbTest, LoadRejectsDecreasingTime) {
  // Recording out of order breaks the precondition; the saved log then
  // has a decreasing time, which load refuses.
  ContentDb db(2);
  db.record_request(0, kHour);
  db.record_request(1, kMinute);
  ContentDb copy(2);
  try {
    load_db(copy, save_db(db));
    FAIL() << "loaded a log whose time decreases";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_EQ(e.kind(), snapshot::SnapshotErrorKind::kCorrupt);
    EXPECT_NE(std::string(e.what()).find("earlier than the one before"),
              std::string::npos)
        << e.what();
  }
}

TEST(StoragePoolTest, HitRatioAccounting) {
  const workload::Catalog catalog = sized_catalog({100 * kMB});
  StoragePool pool(catalog, kGB);
  EXPECT_FALSE(pool.lookup(0));
  pool.insert(0);
  EXPECT_TRUE(pool.lookup(0));
  EXPECT_TRUE(pool.lookup(0));
  EXPECT_DOUBLE_EQ(pool.hit_ratio(), 2.0 / 3.0);
  EXPECT_EQ(pool.file_count(), 1u);
}

TEST(StoragePoolTest, ReinsertRefreshesAndKeepsOneCopy) {
  // Two users requesting the same file share one cached copy (§2.1); the
  // second insert makes it the most recently used.
  const workload::Catalog catalog = sized_catalog({100 * kMB, 100 * kMB});
  StoragePool pool(catalog, kGB);
  pool.insert(0);
  pool.insert(1);
  pool.insert(0);
  EXPECT_EQ(pool.file_count(), 2u);
  EXPECT_EQ(pool.used_bytes(), 200 * kMB);
  EXPECT_EQ(pool.evictions(), 0u);
  EXPECT_EQ(pool.evict_fraction(0.5), 1u);  // takes the LRU file: 1
  EXPECT_TRUE(pool.contains(0));
  EXPECT_FALSE(pool.contains(1));
}

TEST(StoragePoolTest, LruEvictionUnderPressure) {
  const workload::Catalog catalog =
      sized_catalog({100 * kMB, 100 * kMB, 100 * kMB});
  StoragePool pool(catalog, 250 * kMB);
  pool.insert(0);
  pool.insert(1);
  EXPECT_TRUE(pool.lookup(0));  // refresh 0; 1 becomes LRU
  pool.insert(2);
  EXPECT_TRUE(pool.contains(0));
  EXPECT_FALSE(pool.contains(1));
  EXPECT_GE(pool.evictions(), 1u);
}

// The pool as a byte-capacity LRU cache over small catalogs.

TEST(LruCacheTest, PutGetBasic) {
  const workload::Catalog catalog = sized_catalog({10, 10});
  StoragePool pool(catalog, 100);
  EXPECT_TRUE(pool.insert(0));
  EXPECT_TRUE(pool.lookup(0));
  EXPECT_FALSE(pool.lookup(1));
  EXPECT_EQ(pool.used_bytes(), 10u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  const workload::Catalog catalog = sized_catalog({10, 10, 10, 10});
  StoragePool pool(catalog, 30);
  for (workload::FileIndex f = 0; f < 4; ++f) pool.insert(f);  // 3 evicts 0
  EXPECT_FALSE(pool.lookup(0));
  EXPECT_TRUE(pool.lookup(1));
  EXPECT_EQ(pool.evictions(), 1u);
}

TEST(LruCacheTest, GetRefreshesRecency) {
  const workload::Catalog catalog = sized_catalog({10, 10, 10, 10});
  StoragePool pool(catalog, 30);
  for (workload::FileIndex f = 0; f < 3; ++f) pool.insert(f);
  ASSERT_TRUE(pool.lookup(0));  // 0 becomes MRU; 1 is now LRU
  pool.insert(3);
  EXPECT_TRUE(pool.contains(0));
  EXPECT_FALSE(pool.contains(1));
}

TEST(LruCacheTest, PeekDoesNotRefreshRecency) {
  const workload::Catalog catalog = sized_catalog({10, 10, 10});
  StoragePool pool(catalog, 20);
  pool.insert(0);
  pool.insert(1);
  EXPECT_TRUE(pool.contains(0));  // does NOT move 0 to the front
  pool.insert(2);                 // evicts 0 (still LRU)
  EXPECT_FALSE(pool.contains(0));
  EXPECT_TRUE(pool.contains(1));
  EXPECT_EQ(pool.hits() + pool.misses(), 0u);
}

TEST(LruCacheTest, OversizedItemRejected) {
  const workload::Catalog catalog = sized_catalog({11});
  StoragePool pool(catalog, 10);
  EXPECT_FALSE(pool.insert(0));
  EXPECT_FALSE(pool.contains(0));
  EXPECT_EQ(pool.file_count(), 0u);
  EXPECT_EQ(pool.used_bytes(), 0u);
}

TEST(LruCacheTest, ItemExactlyAtCapacityAccepted) {
  const workload::Catalog catalog = sized_catalog({10});
  StoragePool pool(catalog, 10);
  EXPECT_TRUE(pool.insert(0));
  EXPECT_TRUE(pool.contains(0));
  EXPECT_EQ(pool.used_bytes(), 10u);
}

TEST(LruCacheTest, EvictsMultipleToFit) {
  const workload::Catalog catalog = sized_catalog({10, 10, 10, 25});
  StoragePool pool(catalog, 30);
  for (workload::FileIndex f = 0; f < 4; ++f) pool.insert(f);
  // 25 bytes fit only alone: inserting 3 evicted 0, 1 AND 2.
  EXPECT_FALSE(pool.contains(0));
  EXPECT_FALSE(pool.contains(1));
  EXPECT_FALSE(pool.contains(2));
  EXPECT_TRUE(pool.contains(3));
  EXPECT_EQ(pool.evictions(), 3u);
  EXPECT_EQ(pool.used_bytes(), 25u);
}

TEST(LruCacheTest, EraseFreesSpace) {
  // A node loss is the pool's only erase; it is no LRU eviction.
  const workload::Catalog catalog = sized_catalog({10});
  StoragePool pool(catalog, 20);
  pool.insert(0);
  EXPECT_EQ(pool.evict_fraction(1.0), 1u);
  EXPECT_EQ(pool.evict_fraction(1.0), 0u);
  EXPECT_EQ(pool.used_bytes(), 0u);
  EXPECT_FALSE(pool.contains(0));
  EXPECT_EQ(pool.evictions(), 0u);
  EXPECT_EQ(pool.fault_evictions(), 1u);
}

TEST(LruCacheTest, LruKeyReflectsOrder) {
  // A node loss takes files from the least-recently-used end.
  const workload::Catalog catalog = sized_catalog({10, 10, 10});
  StoragePool pool(catalog, 100);
  EXPECT_EQ(pool.evict_fraction(1.0), 0u);  // empty: no LRU end
  for (workload::FileIndex f = 0; f < 3; ++f) pool.insert(f);
  ASSERT_TRUE(pool.lookup(0));  // MRU->LRU: 0, 2, 1
  EXPECT_EQ(pool.evict_fraction(0.3), 1u);
  EXPECT_FALSE(pool.contains(1));
  EXPECT_EQ(pool.evict_fraction(0.3), 1u);
  EXPECT_FALSE(pool.contains(2));
  EXPECT_TRUE(pool.contains(0));
}

// Property-style sweep: under any insertion pattern, used_bytes never
// exceeds capacity and the count matches the cached files.
class LruCapacityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LruCapacityTest, NeverExceedsCapacity) {
  const std::uint64_t capacity = GetParam();
  std::vector<Bytes> sizes;
  for (int i = 0; i < 1000; ++i) sizes.push_back((i * 7919) % 97 + 1);
  const workload::Catalog catalog = sized_catalog(sizes);
  StoragePool pool(catalog, capacity);
  std::uint64_t accepted = 0;
  for (workload::FileIndex f = 0; f < 1000; ++f) {
    if (pool.insert(f)) ++accepted;
    ASSERT_LE(pool.used_bytes(), capacity);
  }
  EXPECT_GT(accepted, 0u);
  std::size_t cached = 0;
  for (workload::FileIndex f = 0; f < 1000; ++f) cached += pool.contains(f);
  EXPECT_EQ(cached, pool.file_count());
}

INSTANTIATE_TEST_SUITE_P(Capacities, LruCapacityTest,
                         ::testing::Values(1, 50, 97, 1000, 100000));

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : net(sim), rng(3) {
    config.total_upload_capacity = kbps_to_rate(1000.0);
    config.isp_upload_share = {0.25, 0.25, 0.25, 0.25};
    scheduler = std::make_unique<UploadScheduler>(net, config, rng);
  }

  sim::Simulator sim;
  net::Network net;
  Rng rng;
  CloudConfig config;
  std::unique_ptr<UploadScheduler> scheduler;
};

TEST_F(SchedulerTest, PrivilegedPathForMajorIspWithHeadroom) {
  const FetchPlan plan =
      scheduler->plan_fetch(net::Isp::kUnicom, kbps_to_rate(200.0));
  ASSERT_TRUE(plan.admitted);
  EXPECT_TRUE(plan.privileged);
  EXPECT_EQ(plan.cluster, net::Isp::kUnicom);
  EXPECT_DOUBLE_EQ(plan.rate, kbps_to_rate(200.0));
  EXPECT_DOUBLE_EQ(scheduler->cluster_reserved(net::Isp::kUnicom),
                   kbps_to_rate(200.0));
}

TEST_F(SchedulerTest, ServesAtHeadroomWhenNearlyFull) {
  // Fill Unicom to 150 KBps of headroom (above the admission floor); the
  // next fetch is served at the headroom, not rejected (the
  // no-degradation policy only guards active transfers).
  scheduler->plan_fetch(net::Isp::kUnicom, kbps_to_rate(100.0));
  const FetchPlan plan =
      scheduler->plan_fetch(net::Isp::kUnicom, kbps_to_rate(10000.0));
  ASSERT_TRUE(plan.admitted);
  EXPECT_TRUE(plan.privileged);
  EXPECT_NEAR(plan.rate, kbps_to_rate(150.0), 1.0);
}

TEST_F(SchedulerTest, OutOfIspUsersCrossTheBarrier) {
  const FetchPlan plan =
      scheduler->plan_fetch(net::Isp::kOther, kbps_to_rate(5000.0));
  ASSERT_TRUE(plan.admitted);
  EXPECT_FALSE(plan.privileged);
  // Barrier-capped: far below the requested rate with high probability.
  EXPECT_LT(plan.rate, kbps_to_rate(1500.0));
}

TEST_F(SchedulerTest, SpilloverToAlternativeClusterAtPeak) {
  // Exhaust the home cluster below the admission floor.
  scheduler->plan_fetch(net::Isp::kCernet, kbps_to_rate(240.0));
  const FetchPlan plan =
      scheduler->plan_fetch(net::Isp::kCernet, kbps_to_rate(200.0));
  ASSERT_TRUE(plan.admitted);
  EXPECT_FALSE(plan.privileged);
  EXPECT_NE(plan.cluster, net::Isp::kCernet);
}

TEST_F(SchedulerTest, RejectsWhenAllClustersExhausted) {
  // Drain every cluster under the floor.
  for (net::Isp isp : net::kMajorIsps) {
    while (scheduler->cluster_capacity(isp) -
               scheduler->cluster_reserved(isp) >=
           kbps_to_rate(125.0)) {
      const FetchPlan p = scheduler->plan_fetch(isp, kbps_to_rate(10000.0));
      if (!p.admitted) break;
    }
  }
  const FetchPlan plan =
      scheduler->plan_fetch(net::Isp::kUnicom, kbps_to_rate(500.0));
  EXPECT_FALSE(plan.admitted);
  EXPECT_GE(scheduler->rejected_count(), 1u);
}

TEST_F(SchedulerTest, ReleaseReturnsReservation) {
  const FetchPlan plan =
      scheduler->plan_fetch(net::Isp::kMobile, kbps_to_rate(100.0));
  ASSERT_TRUE(plan.admitted);
  scheduler->release(plan);
  EXPECT_DOUBLE_EQ(scheduler->cluster_reserved(net::Isp::kMobile), 0.0);
  // Releasing a rejected plan is a no-op.
  scheduler->release(FetchPlan{});
}

TEST_F(SchedulerTest, SmallRequestsAdmittedBelowFloor) {
  // A user wanting less than the floor (slow line) is still admitted.
  const FetchPlan plan =
      scheduler->plan_fetch(net::Isp::kTelecom, kbps_to_rate(50.0));
  ASSERT_TRUE(plan.admitted);
  EXPECT_DOUBLE_EQ(plan.rate, kbps_to_rate(50.0));
}

TEST_F(SchedulerTest, BarrierRatesMostlyBelowPlayback) {
  int below = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    if (scheduler->sample_barrier_rate() < kbps_to_rate(125.0)) ++below;
  }
  // §4.2 attributes essentially all out-of-ISP fetches to the impeded
  // bucket; the barrier cap distribution sits mostly under 125 KBps.
  EXPECT_GT(below / static_cast<double>(n), 0.8);
  // Spillover paths are clearly better than the raw barrier.
  double barrier_sum = 0, spill_sum = 0;
  for (int i = 0; i < n; ++i) {
    barrier_sum += scheduler->sample_barrier_rate();
    spill_sum += scheduler->sample_spillover_rate();
  }
  EXPECT_GT(spill_sum, 2.0 * barrier_sum);
}

}  // namespace
}  // namespace odr::cloud
