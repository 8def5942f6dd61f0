// Ablation study: which parts of ODR's decision tree earn their keep.
//
// Variants:
//   - full ODR;
//   - no-B1: the cloud-path bottleneck test is disabled (playback
//     threshold set to 0), so slow/out-of-ISP users are never staged via
//     the smart AP;
//   - no-B4: the storage test is disabled (floor raised to infinity), so
//     highly popular files go to the AP even with NTFS/flash storage;
//   - plus the AMS and Always-hybrid baselines for reference.
#include <cstdio>
#include <limits>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "analysis/report.h"
#include "util/args.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace odr;
  ArgParser args("ODR decision-tree ablations.");
  args.flag("divisor", "200", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "random seed");
  if (!args.parse(argc, argv)) return 1;

  struct Variant {
    std::string name;
    core::Strategy strategy;
    core::RedirectorParams params;
  };
  std::vector<Variant> variants;
  variants.push_back({"ODR (full)", core::Strategy::kOdr, {}});
  {
    core::RedirectorParams p;
    p.playback_rate = 0.0;           // low-bandwidth test disabled
    p.consider_isp_barrier = false;  // ISP-barrier test disabled
    variants.push_back({"ODR w/o B1 staging", core::Strategy::kOdr, p});
  }
  {
    core::RedirectorParams p;
    // Storage never considered a bottleneck: the floor covers every line.
    p.ap_storage_floor = std::numeric_limits<double>::infinity();
    variants.push_back({"ODR w/o B4 check", core::Strategy::kOdr, p});
  }
  variants.push_back({"AMS baseline", core::Strategy::kAms, {}});
  variants.push_back({"Always-hybrid", core::Strategy::kAlwaysHybrid, {}});

  TextTable table({"variant", "impeded(B1)", "cloud upload (GB)",
                   "unpopular fail(B3)", "storage-throttled(B4)",
                   "fetch med KBps"});
  for (const auto& v : variants) {
    analysis::StrategyReplayConfig cfg;
    cfg.experiment = analysis::make_scaled_config(
        args.get_double("divisor", 1.0, analysis::kMaxDivisor),
        static_cast<std::uint64_t>(args.get_int("seed")));
    cfg.strategy = v.strategy;
    cfg.redirector = v.params;
    const auto result = analysis::run_strategy_replay(cfg);
    const auto m = analysis::strategy_metrics(
        v.name, result.outcomes, result.duration,
        result.storage_throttled_fraction);
    table.add_row({v.name, TextTable::pct(m.impeded_fraction),
                   TextTable::num(static_cast<double>(m.total_cloud_upload) /
                                      1e9,
                                  1),
                   TextTable::pct(m.unpopular_failure),
                   TextTable::pct(m.storage_throttled),
                   TextTable::num(m.fetch_speed_kbps.median(), 0)});
  }
  std::fputs(banner("ODR ablations: removing a branch re-exposes the "
                    "bottleneck it guards")
                 .c_str(),
             stdout);
  std::fputs(table.render().c_str(), stdout);

  // Note on the Bottleneck-1 staging: disabling it must push the impeded
  // fraction from ODR's level back toward the cloud-only level; disabling
  // the storage test must re-expose Table 2's throttling.
  return 0;
}
