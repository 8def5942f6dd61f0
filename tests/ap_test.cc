// Smart-AP tests: storage/filesystem I/O model (Table 2) and the AP
// pre-download engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>

#include "ap/ap_models.h"
#include "ap/smart_ap.h"
#include "ap/storage_device.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace odr::ap {
namespace {

constexpr double kMBps = 1e6;

TEST(StorageDeviceTest, Table2MeasuredCeilings) {
  // The NTFS ceilings are measured values in Table 2 and must match.
  EXPECT_NEAR(io_profile(DeviceType::kUsbFlash, Filesystem::kNtfs).max_write_rate,
              0.93 * kMBps, 0.02 * kMBps);
  EXPECT_NEAR(io_profile(DeviceType::kUsbHdd, Filesystem::kNtfs).max_write_rate,
              1.13 * kMBps, 0.02 * kMBps);
  // USB flash under FAT/EXT4: the measured 2.12 / 2.13 MBps ceilings.
  EXPECT_NEAR(io_profile(DeviceType::kUsbFlash, Filesystem::kFat).max_write_rate,
              2.12 * kMBps, 0.02 * kMBps);
  EXPECT_NEAR(io_profile(DeviceType::kUsbFlash, Filesystem::kExt4).max_write_rate,
              2.13 * kMBps, 0.02 * kMBps);
}

TEST(StorageDeviceTest, LineRateLimitedCombosExceedLineRate) {
  // Where the paper measured 2.37 MBps (the 20 Mbps line), the storage
  // path must NOT be the bottleneck.
  const Rate line = mbps_to_rate(20.0);
  EXPECT_GT(io_profile(DeviceType::kSdCard, Filesystem::kFat).max_write_rate, line);
  EXPECT_GT(io_profile(DeviceType::kSataHdd, Filesystem::kExt4).max_write_rate, line);
  EXPECT_GT(io_profile(DeviceType::kUsbHdd, Filesystem::kFat).max_write_rate, line);
  EXPECT_GT(io_profile(DeviceType::kUsbHdd, Filesystem::kExt4).max_write_rate, line);
}

struct IowaitCase {
  DeviceType device;
  Filesystem fs;
  double rate_mbps;    // achieved pre-download rate
  double iowait;       // Table 2 measurement
};

// Names each case after its Table 2 row; without it gtest names the case by
// the struct's raw bytes, padding included, which differ from build to build.
void PrintTo(const IowaitCase& c, std::ostream* os) {
  *os << device_name(c.device) << " on " << filesystem_name(c.fs);
}

class IowaitTest : public ::testing::TestWithParam<IowaitCase> {};

TEST_P(IowaitTest, MatchesTable2) {
  const IowaitCase& c = GetParam();
  const IoProfile profile = io_profile(c.device, c.fs);
  EXPECT_NEAR(profile.iowait_at(c.rate_mbps * kMBps), c.iowait, 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Table2, IowaitTest,
    ::testing::Values(
        IowaitCase{DeviceType::kSdCard, Filesystem::kFat, 2.37, 0.421},
        IowaitCase{DeviceType::kSataHdd, Filesystem::kExt4, 2.37, 0.297},
        IowaitCase{DeviceType::kUsbFlash, Filesystem::kFat, 2.12, 0.663},
        IowaitCase{DeviceType::kUsbFlash, Filesystem::kNtfs, 0.93, 0.151},
        IowaitCase{DeviceType::kUsbFlash, Filesystem::kExt4, 2.13, 0.55},
        IowaitCase{DeviceType::kUsbHdd, Filesystem::kFat, 2.37, 0.42},
        IowaitCase{DeviceType::kUsbHdd, Filesystem::kNtfs, 1.13, 0.098},
        IowaitCase{DeviceType::kUsbHdd, Filesystem::kExt4, 2.37, 0.174}));

TEST(StorageDeviceTest, IowaitMonotonicInRate) {
  const IoProfile p = io_profile(DeviceType::kUsbFlash, Filesystem::kFat);
  EXPECT_LT(p.iowait_at(0.0), 1e-9);
  EXPECT_LT(p.iowait_at(1.0 * kMBps), p.iowait_at(2.0 * kMBps));
  // Saturates at the ceiling.
  EXPECT_NEAR(p.iowait_at(100 * kMBps), p.iowait_at(p.max_write_rate), 1e-9);
}

TEST(StorageDeviceTest, SupportMatrix) {
  // HiWiFi's SD slot is FAT-only; MiWiFi's disk is EXT4-only (§5.1).
  EXPECT_TRUE(combination_supported(DeviceType::kSdCard, Filesystem::kFat));
  EXPECT_FALSE(combination_supported(DeviceType::kSdCard, Filesystem::kNtfs));
  EXPECT_FALSE(combination_supported(DeviceType::kSataHdd, Filesystem::kFat));
  EXPECT_TRUE(combination_supported(DeviceType::kSataHdd, Filesystem::kExt4));
  for (Filesystem fs : {Filesystem::kFat, Filesystem::kNtfs, Filesystem::kExt4}) {
    EXPECT_TRUE(combination_supported(DeviceType::kUsbFlash, fs));
    EXPECT_TRUE(combination_supported(DeviceType::kUsbHdd, fs));
  }
}

TEST(StorageDeviceTest, SpecSheetValues) {
  // §5.1's spec-sheet rates.
  EXPECT_DOUBLE_EQ(device_spec(DeviceType::kSdCard).max_sequential_write, 15 * kMBps);
  EXPECT_DOUBLE_EQ(device_spec(DeviceType::kSdCard).max_sequential_read, 30 * kMBps);
  EXPECT_DOUBLE_EQ(device_spec(DeviceType::kSataHdd).max_sequential_write, 30 * kMBps);
  EXPECT_DOUBLE_EQ(device_spec(DeviceType::kUsbHdd).max_sequential_read, 25 * kMBps);
}

TEST(ApModelsTest, Table1Hardware) {
  EXPECT_EQ(kHiWiFi.cpu_mhz, 580);
  EXPECT_EQ(kHiWiFi.ram_mb, 128);
  EXPECT_EQ(kMiWiFi.cpu_mhz, 1000);
  EXPECT_EQ(kMiWiFi.ram_mb, 256);
  EXPECT_EQ(kMiWiFi.default_device, DeviceType::kSataHdd);
  EXPECT_EQ(kMiWiFi.default_filesystem, Filesystem::kExt4);
  EXPECT_EQ(kNewifi.default_device, DeviceType::kUsbFlash);
  EXPECT_EQ(kNewifi.default_filesystem, Filesystem::kNtfs);
  EXPECT_EQ(all_ap_models().size(), 3u);
}

class SmartApTest : public ::testing::Test {
 protected:
  SmartApTest() : net(sim), rng(13) {}

  workload::FileInfo hot_file(Bytes size) {
    workload::FileInfo f;
    f.index = 0;
    f.size = size;
    f.protocol = proto::Protocol::kBitTorrent;
    f.expected_weekly_requests = 5000;  // hot swarm: fast, never starves
    return f;
  }

  // An AP that files each result by id; a second report for one id fails
  // the test.
  std::unique_ptr<SmartAp> make_ap(const SmartApConfig& cfg) {
    return std::make_unique<SmartAp>(
        sim, net, cfg, sources, rng,
        [this](std::uint64_t id, const proto::DownloadResult& r) {
          EXPECT_TRUE(results.emplace(id, r).second)
              << "pre-download " << id << " reported twice";
          if (on_result) on_result(r);
        });
  }

  std::optional<proto::DownloadResult> result_of(std::uint64_t id) const {
    const auto it = results.find(id);
    if (it == results.end()) return std::nullopt;
    return it->second;
  }

  sim::Simulator sim;
  net::Network net;
  Rng rng;
  proto::SourceParams sources;
  std::map<std::uint64_t, proto::DownloadResult> results;
  // Runs inside the sink, after the result is filed.
  std::function<void(const proto::DownloadResult&)> on_result;
};

SmartApConfig sata_ext4(double bug_failure_prob = 0.0) {
  SmartApConfig cfg;
  cfg.hardware = kMiWiFi;
  cfg.device = DeviceType::kSataHdd;
  cfg.filesystem = Filesystem::kExt4;
  cfg.bug_failure_prob = bug_failure_prob;
  return cfg;
}

TEST_F(SmartApTest, NtfsFlashThrottlesFastLine) {
  // Bottleneck 4: Newifi's shipping config (USB flash + NTFS) caps the
  // pre-download at 0.93 MBps even on a 20 Mbps line with a hot swarm.
  SmartApConfig cfg;  // Newifi defaults
  cfg.bug_failure_prob = 0.0;
  const std::unique_ptr<SmartAp> ap = make_ap(cfg);
  EXPECT_NEAR(ap->storage_write_ceiling(), 0.93e6, 0.02e6);

  ap->predownload(1, hot_file(558 * kMB), net::kUnlimitedRate);
  sim.run();
  const std::optional<proto::DownloadResult> result = result_of(1);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->success);
  // 558 MB at <= 0.93 MBps takes at least 600 s.
  EXPECT_GE(result->duration(), 600 * kSec);
  EXPECT_LE(result->peak_rate, 0.94e6);
}

TEST_F(SmartApTest, Ext4DiskDoesNotThrottle) {
  const std::unique_ptr<SmartAp> ap = make_ap(sata_ext4());
  ap->predownload(1, hot_file(150 * kMB), net::kUnlimitedRate);
  sim.run();
  const std::optional<proto::DownloadResult> result = result_of(1);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->success);
  // Limited by the source/line, not storage: peak can reach past 1 MBps.
  EXPECT_GT(ap->storage_write_ceiling(), mbps_to_rate(20.0));
}

TEST_F(SmartApTest, ReplayRestrictionCapsRate) {
  const std::unique_ptr<SmartAp> ap = make_ap(sata_ext4());
  // §5.1: replay throttled to the recorded user access bandwidth.
  ap->predownload(1, hot_file(60 * kMB), kbps_to_rate(100.0));
  sim.run();
  const std::optional<proto::DownloadResult> result = result_of(1);
  ASSERT_TRUE(result.has_value());
  EXPECT_LE(result->peak_rate, kbps_to_rate(100.0) + 1.0);
  EXPECT_GE(result->duration(), 600 * kSec);  // 60 MB at <= 100 KBps
}

TEST_F(SmartApTest, TaskDiesInItsDoneCallback) {
  // The AP destroys a finished task when its engine callback returns, so
  // the sink sees nothing left queued: no deferred delete, no tick.
  const std::unique_ptr<SmartAp> ap = make_ap(sata_ext4());
  std::size_t pending_in_callback = ~std::size_t{0};
  on_result = [&](const proto::DownloadResult&) {
    pending_in_callback = sim.pending_count();
  };
  ap->predownload(1, hot_file(10 * kMB), net::kUnlimitedRate);
  sim.run();
  const std::optional<proto::DownloadResult> result = result_of(1);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->success);
  EXPECT_EQ(pending_in_callback, 0u);
  EXPECT_EQ(ap->active(), 0u);
}

TEST_F(SmartApTest, BugInjectionFailsWithSystemBugCause) {
  const std::unique_ptr<SmartAp> ap =
      make_ap(sata_ext4(/*bug_failure_prob=*/1.0));  // every task crashes
  for (std::uint64_t id = 0; id < 10; ++id) {
    ap->predownload(id, hot_file(4 * kGB), kbps_to_rate(200.0));
  }
  sim.run();
  // 4 GB at 200 KBps takes ~5.8 h; the crash (1-90 min) always wins.
  ASSERT_EQ(results.size(), 10u);
  for (const auto& [id, r] : results) {
    EXPECT_EQ(r.cause, proto::FailureCause::kSystemBug) << "pre-download "
                                                        << id;
  }
}

TEST_F(SmartApTest, LanFetchIs8To12MBps) {
  const std::unique_ptr<SmartAp> ap = make_ap(SmartApConfig{});
  for (int i = 0; i < 100; ++i) {
    const SimTime d = ap->lan_fetch_duration(120 * kMB, rng);
    const double rate = 120e6 / to_seconds(d);
    EXPECT_GE(rate, 7.9e6);
    EXPECT_LE(rate, 12.1e6);
  }
}

TEST_F(SmartApTest, ConcurrentPreDownloadsSupported) {
  const std::unique_ptr<SmartAp> ap = make_ap(sata_ext4());
  for (std::uint64_t id = 0; id < 5; ++id) {
    ap->predownload(id, hot_file(50 * kMB), kbps_to_rate(300.0));
  }
  EXPECT_EQ(ap->active(), 5u);
  sim.run();
  EXPECT_EQ(results.size(), 5u);
  EXPECT_EQ(ap->active(), 0u);
}

}  // namespace
}  // namespace odr::ap
