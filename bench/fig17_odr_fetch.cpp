// Figure 17: CDF of fetching speeds using ODR, vs plain Xuanfeng.
//
// Paper: ODR lifts the median fetch speed from 287 to 368 KBps; the
// average (509 KBps) is comparable to Xuanfeng's (504 KBps) because the
// testbed line caps ODR's max at 2.37 MBps vs Xuanfeng's 6.1 MBps.
#include <cstdio>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "analysis/report.h"
#include "util/args.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace odr;
  ArgParser args("Figure 17: fetch speed CDF under ODR vs the cloud.");
  args.flag("divisor", "200", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "random seed");
  if (!args.parse(argc, argv)) return 1;

  auto run = [&](core::Strategy strategy) {
    analysis::StrategyReplayConfig cfg;
    cfg.experiment = analysis::make_scaled_config(
        args.get_double("divisor", 1.0, analysis::kMaxDivisor),
        static_cast<std::uint64_t>(args.get_int("seed")));
    cfg.strategy = strategy;
    const auto result = analysis::run_strategy_replay(cfg);
    return analysis::strategy_metrics(
        std::string(core::strategy_name(strategy)), result.outcomes,
        result.duration, result.storage_throttled_fraction);
  };

  const auto odr_metrics = run(core::Strategy::kOdr);
  const auto cloud_metrics = run(core::Strategy::kCloudOnly);

  const Summary odr_speed = odr_metrics.fetch_speed_kbps.summary();
  const Summary cloud_speed = cloud_metrics.fetch_speed_kbps.summary();

  using analysis::ComparisonRow;
  std::fputs(
      analysis::comparison_table(
          "Figure 17: fetch speeds (20 Mbps testbed lines)",
          {
              {"ODR median fetch speed", "368 KBps",
               analysis::fmt_kbps(odr_speed.median)},
              {"ODR average fetch speed", "509 KBps",
               analysis::fmt_kbps(odr_speed.mean)},
              {"ODR max fetch speed", "2370 KBps (testbed line)",
               analysis::fmt_kbps(odr_speed.max)},
              {"Xuanfeng median (comparison curve)", "287 KBps",
               analysis::fmt_kbps(cloud_speed.median)},
              {"Xuanfeng average", "504 KBps",
               analysis::fmt_kbps(cloud_speed.mean)},
              {"ODR median uplift over Xuanfeng", "1.28x",
               TextTable::num(odr_speed.median /
                                  std::max(1.0, cloud_speed.median),
                              2) +
                   "x"},
          })
          .c_str(),
      stdout);

  std::fputs(analysis::cdf_table("Figure 17 series: ODR fetch speed", "KBps",
                                 odr_metrics.fetch_speed_kbps, 16)
                 .c_str(),
             stdout);
  std::fputs(analysis::cdf_table("Comparison series: Xuanfeng fetch speed",
                                 "KBps", cloud_metrics.fetch_speed_kbps, 16)
                 .c_str(),
             stdout);
  return 0;
}
