// Figure 16: ODR vs the conventional approaches on the four bottlenecks.
//
// Paper: with ODR, (1) impeded fetches drop 28% -> 9%; (2) the cloud's
// upload burden drops ~35% (peak 34 -> 22 Gbps) and no fetch must be
// rejected; (3) AP failures on unpopular files drop 42% -> 13%;
// (4) storage/filesystem throttling is almost completely avoided.
// The measured peak is one 5-minute bin, so one burst moves it; the table
// also prints the 95th percentile of the hourly burden.
#include <cstdio>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "analysis/report.h"
#include "util/args.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace odr;
  ArgParser args("Figure 16: ODR vs baselines on the four bottlenecks.");
  args.flag("divisor", "200", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "random seed");
  if (!args.parse(argc, argv)) return 1;
  const double divisor = args.get_double("divisor", 1.0, analysis::kMaxDivisor);

  auto run = [&](core::Strategy strategy) {
    analysis::StrategyReplayConfig cfg;
    cfg.experiment = analysis::make_scaled_config(
        divisor, static_cast<std::uint64_t>(args.get_int("seed")));
    cfg.strategy = strategy;
    const auto result = analysis::run_strategy_replay(cfg);
    return analysis::strategy_metrics(
        std::string(core::strategy_name(strategy)), result.outcomes,
        result.duration, result.storage_throttled_fraction);
  };

  const auto cloud = run(core::Strategy::kCloudOnly);
  const auto ap = run(core::Strategy::kApOnly);
  const auto odr = run(core::Strategy::kOdr);

  // Fig 16's bars: per bottleneck, the conventional approach that exhibits
  // it (cloud for B1/B2, APs for B3/B4) against ODR.
  std::fputs(
      analysis::comparison_table(
          "Figure 16: bottleneck metrics, conventional vs ODR",
          {
              {"B1 impeded fetches: cloud -> ODR", "28% -> 9%",
               analysis::fmt_pct(cloud.impeded_fraction) + " -> " +
                   analysis::fmt_pct(odr.impeded_fraction)},
              {"B2 cloud upload volume: cloud -> ODR", "-35%",
               TextTable::num(
                   100.0 * (1.0 - static_cast<double>(odr.total_cloud_upload) /
                                      static_cast<double>(
                                          cloud.total_cloud_upload)),
                   0) +
                   "% lower"},
              {"B2 peak burden: cloud -> ODR", "34 -> 22 Gbps (scaled)",
               TextTable::num(rate_to_gbps(cloud.peak_cloud_burden) * divisor,
                              1) +
                   " -> " +
                   TextTable::num(rate_to_gbps(odr.peak_cloud_burden) * divisor,
                                  1) +
                   " Gbps"},
              {"B2 p95 hourly burden: cloud -> ODR", "(peak only)",
               TextTable::num(
                   rate_to_gbps(cloud.p95_hourly_cloud_burden) * divisor, 1) +
                   " -> " +
                   TextTable::num(
                       rate_to_gbps(odr.p95_hourly_cloud_burden) * divisor, 1) +
                   " Gbps"},
              {"B2 rejected fetches: cloud -> ODR", "1.5% -> 0%",
               analysis::fmt_pct(cloud.rejected_fraction) + " -> " +
                   analysis::fmt_pct(odr.rejected_fraction)},
              {"B3 unpopular failures: APs -> ODR", "42% -> 13%",
               analysis::fmt_pct(ap.unpopular_failure) + " -> " +
                   analysis::fmt_pct(odr.unpopular_failure)},
              {"B4 storage-throttled tasks: APs -> ODR", "-> ~0%",
               analysis::fmt_pct(ap.storage_throttled) + " -> " +
                   analysis::fmt_pct(odr.storage_throttled)},
          })
          .c_str(),
      stdout);

  TextTable detail({"strategy", "success", "impeded", "rejected",
                    "unpopular fail", "storage-throttled",
                    "cloud upload (GB)", "e2e delay med (min)"});
  for (const auto& m : {cloud, ap, odr}) {
    detail.add_row({m.name,
                    TextTable::pct(static_cast<double>(m.successes) /
                                   std::max<std::size_t>(1, m.tasks)),
                    TextTable::pct(m.impeded_fraction),
                    TextTable::pct(m.rejected_fraction),
                    TextTable::pct(m.unpopular_failure),
                    TextTable::pct(m.storage_throttled),
                    TextTable::num(static_cast<double>(m.total_cloud_upload) /
                                       1e9,
                                   1),
                    TextTable::num(m.e2e_delay_min.median, 0)});
  }
  std::fputs(banner("Per-strategy detail").c_str(), stdout);
  std::fputs(detail.render().c_str(), stdout);
  return 0;
}
