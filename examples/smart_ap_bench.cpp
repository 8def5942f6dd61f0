// Example: replay a sampled Unicom workload on the three smart APs (§5).
//
// Usage: smart_ap_bench [--divisor 100] [--sample 999] [--seed 20151028]
#include <cstdio>

#include "analysis/replay.h"
#include "analysis/report.h"
#include "util/args.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  odr::ArgParser args(
      "Replay sampled offline-downloading requests on HiWiFi, MiWiFi and "
      "Newifi smart APs.");
  args.flag("divisor", "100", "scale divisor vs the measured system");
  args.flag("sample", "999", "number of sampled requests (split over 3 APs)");
  args.flag("seed", "20151028", "random seed");
  if (!args.parse(argc, argv)) return 1;

  odr::analysis::ApReplayConfig config;
  config.experiment = odr::analysis::make_scaled_config(
      args.get_double("divisor", 1.0, odr::analysis::kMaxDivisor),
      static_cast<std::uint64_t>(args.get_int("seed")));
  config.sample_size = static_cast<std::size_t>(args.get_int("sample", 1));

  const auto result = odr::analysis::run_ap_replay(config);

  odr::EmpiricalCdf speed_kbps, delay_min;
  std::size_t unpopular = 0, unpopular_failed = 0;
  for (const auto& t : result.tasks) {
    speed_kbps.add(odr::rate_to_kbps(t.result.average_rate));
    delay_min.add(odr::to_minutes(t.result.duration()));
    if (odr::workload::classify_popularity(t.weekly_popularity) ==
        odr::workload::PopularityClass::kUnpopular) {
      ++unpopular;
      if (!t.result.success) ++unpopular_failed;
    }
  }
  const auto speed = speed_kbps.summary();
  const auto delay = delay_min.summary();
  const double n = static_cast<double>(result.tasks.size());

  using odr::analysis::ComparisonRow;
  std::fputs(
      odr::analysis::comparison_table(
          "Smart-AP replay vs paper (§5.2)",
          {
              {"tasks replayed", "1000", std::to_string(result.tasks.size())},
              {"overall pre-download failure", "16.8%",
               odr::analysis::fmt_pct(result.failures / n)},
              {"unpopular-file failure", "42%",
               odr::analysis::fmt_pct(
                   unpopular == 0 ? 0.0
                                  : static_cast<double>(unpopular_failed) /
                                        unpopular)},
              {"failures: insufficient seeds", "86%",
               odr::analysis::fmt_pct(
                   result.failures == 0
                       ? 0.0
                       : static_cast<double>(result.insufficient_seed_failures) /
                             result.failures)},
              {"failures: poor HTTP/FTP", "10%",
               odr::analysis::fmt_pct(
                   result.failures == 0
                       ? 0.0
                       : static_cast<double>(result.http_failures) /
                             result.failures)},
              {"failures: system bugs", "4%",
               odr::analysis::fmt_pct(
                   result.failures == 0
                       ? 0.0
                       : static_cast<double>(result.bug_failures) /
                             result.failures)},
              {"pre-download speed med/avg", "27 / 64 KBps",
               odr::analysis::fmt_kbps(speed.median) + " / " +
                   odr::analysis::fmt_kbps(speed.mean)},
              {"pre-download delay med/avg", "77 / 402 min",
               odr::analysis::fmt_minutes(delay.median) + " / " +
                   odr::analysis::fmt_minutes(delay.mean)},
          })
          .c_str(),
      stdout);
  return 0;
}
