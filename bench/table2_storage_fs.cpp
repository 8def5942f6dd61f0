// Table 2: max pre-downloading speeds and iowait ratios for different
// storage devices and filesystems.
//
// Methodology follows §5.2: the top-10 popular requests of the sampled
// workload are replayed with NO restriction on pre-downloading speed, so
// the line (20 Mbps = 2.5 MBps) or the storage path is the bottleneck.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>

#include "analysis/report.h"
#include "ap/smart_ap.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/args.h"
#include "util/table.h"
#include "workload/catalog.h"

using namespace odr;

namespace {

struct CellResult {
  double max_speed_mbps = 0.0;
  double iowait = 0.0;
  bool supported = false;
};

CellResult run_cell(ap::DeviceType device, ap::Filesystem fs,
                    const workload::Catalog& catalog, std::uint64_t seed) {
  CellResult cell;
  if (!ap::combination_supported(device, fs)) return cell;
  cell.supported = true;

  sim::Simulator sim;
  net::Network net(sim);
  Rng rng(seed);
  proto::SourceParams sources;

  ap::SmartApConfig cfg;
  cfg.hardware = ap::kNewifi;
  cfg.device = device;
  cfg.filesystem = fs;
  cfg.bug_failure_prob = 0.0;
  // MiWiFi's internal disk / HiWiFi's SD slot are modeled on the same AP
  // chassis here; Table 2 isolates the storage path, which is what varies.
  // Each request's peak rate, by request id; an AP reports each once.
  std::map<std::uint64_t, Rate> peaks;
  ap::SmartAp test_ap(sim, net, cfg, sources, rng,
                      [&peaks](std::uint64_t id,
                               const proto::DownloadResult& r) {
                        if (!peaks.emplace(id, r.peak_rate).second) {
                          throw std::logic_error("an AP request reported twice");
                        }
                      });

  // Top-10 popular requests, unrestricted rate (§5.2). The top files of
  // the FULL 4M-request workload see thousands of requests per week; their
  // swarms are saturated with seeds, so the line or the storage path is
  // the only possible bottleneck.
  for (int i = 0; i < 10; ++i) {
    workload::FileInfo file = catalog.file(static_cast<workload::FileIndex>(i));
    file.expected_weekly_requests = 20000.0 - 1200.0 * i;  // full-scale head
    file.protocol = proto::Protocol::kBitTorrent;
    test_ap.predownload(static_cast<std::uint64_t>(i), file,
                        net::kUnlimitedRate);
  }
  sim.run();
  double peak = 0.0;
  for (const auto& [id, rate] : peaks) peak = std::max(peak, rate);
  cell.max_speed_mbps = peak / 1e6;
  cell.iowait = test_ap.iowait_at(peak);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("Table 2: storage device x filesystem sweep.");
  args.flag("seed", "20151028", "random seed");
  if (!args.parse(argc, argv)) return 1;
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

  Rng rng(seed);
  workload::CatalogParams cp;
  cp.num_files = 2000;
  cp.total_weekly_requests = 14500;
  const workload::Catalog catalog(cp, rng);

  const struct {
    const char* label;
    ap::DeviceType device;
  } rows[] = {
      {"HiWiFi + SD card", ap::DeviceType::kSdCard},
      {"MiWiFi + SATA hard disk drive", ap::DeviceType::kSataHdd},
      {"Newifi + USB flash drive", ap::DeviceType::kUsbFlash},
      {"Newifi + USB hard disk drive", ap::DeviceType::kUsbHdd},
  };
  const ap::Filesystem columns[] = {ap::Filesystem::kFat, ap::Filesystem::kNtfs,
                                    ap::Filesystem::kExt4};

  TextTable speeds({"Max pre-downloading speed (MBps)", "FAT", "NTFS", "EXT4"});
  TextTable iowaits({"iowait ratio", "FAT", "NTFS", "EXT4"});
  for (const auto& row : rows) {
    std::vector<std::string> srow = {row.label};
    std::vector<std::string> irow = {row.label};
    for (ap::Filesystem fs : columns) {
      const CellResult cell = run_cell(row.device, fs, catalog, seed);
      if (!cell.supported) {
        srow.push_back("-");
        irow.push_back("-");
      } else {
        srow.push_back(TextTable::num(cell.max_speed_mbps, 2));
        irow.push_back(TextTable::pct(cell.iowait));
      }
    }
    speeds.add_row(srow);
    iowaits.add_row(irow);
  }
  std::fputs(banner("Table 2 (paper: HiWiFi+SD FAT 2.37 | MiWiFi+SATA EXT4 "
                    "2.37 | Newifi+flash 2.12/0.93/2.13 | Newifi+HDD "
                    "2.37/1.13/2.37 MBps)")
                 .c_str(),
             stdout);
  std::fputs(speeds.render().c_str(), stdout);
  std::fputs(banner("Table 2 iowait (paper: 42.1% | 29.7% | 66.3%/15.1%/55% "
                    "| 42%/9.8%/17.4%)")
                 .c_str(),
             stdout);
  std::fputs(iowaits.render().c_str(), stdout);
  std::puts("\nNote: per §5.1, HiWiFi's SD slot only works FAT-formatted and"
            "\nMiWiFi's internal disk ships EXT4 and cannot be reformatted;"
            "\nthose cells are '-' as in the paper.");
  return 0;
}
