// Figure 11: cloud-side upload bandwidth burden over the measurement week.
//
// Paper: 5-minute bins; the burden includes an estimate for the 1.5% of
// rejected fetches (at the 504 KBps average speed); the purchased 30 Gbps
// is exceeded at the day-7 peak (34 Gbps); highly popular files account
// for ~40% of the burden on average.
#include <cstdio>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "analysis/report.h"
#include "snapshot/world.h"
#include "util/args.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace odr;
  ArgParser args("Figure 11: cloud upload bandwidth burden over the week.");
  args.flag("divisor", "100", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "random seed");
  if (!args.parse(argc, argv)) return 1;

  const double divisor = args.get_double("divisor", 1.0, analysis::kMaxDivisor);
  const auto config = analysis::make_scaled_config(
      divisor, static_cast<std::uint64_t>(args.get_int("seed")));
  const auto result = analysis::run_cloud_replay(config);

  const auto series = analysis::burden_series(
      result.outcomes, config.requests.duration, 5 * kMinute,
      config.cloud.total_upload_capacity, kbps_to_rate(504.0));

  // Scale measured rates back up to the full-system equivalent, so the
  // series reads in the paper's units (Gbps against the 30 Gbps line).
  const double up = divisor;
  TextTable table({"day", "avg burden (Gbps)", "peak burden (Gbps)",
                   "highly-popular share"});
  const std::size_t bins_per_day = series.all.bins() / 7;
  double total_all = 0, total_hp = 0;
  for (int day = 0; day < 7; ++day) {
    double day_sum = 0, day_hp = 0, day_peak = 0;
    for (std::size_t b = day * bins_per_day; b < (day + 1) * bins_per_day;
         ++b) {
      day_sum += series.all.bin_total(b);
      day_hp += series.highly_popular.bin_total(b);
      day_peak = std::max(day_peak, series.all.bin_rate(b));
    }
    total_all += day_sum;
    total_hp += day_hp;
    const double day_secs = to_seconds(bins_per_day * 5 * kMinute);
    table.add_row({std::to_string(day + 1),
                   TextTable::num(rate_to_gbps(day_sum / day_secs) * up, 1),
                   TextTable::num(rate_to_gbps(day_peak) * up, 1),
                   TextTable::pct(day_sum > 0 ? day_hp / day_sum : 0.0)});
  }
  std::fputs(banner("Figure 11: upload burden by day (scaled to full-system "
                    "Gbps; purchased capacity 30 Gbps)")
                 .c_str(),
             stdout);
  std::fputs(table.render().c_str(), stdout);

  const double peak_gbps = rate_to_gbps(series.all.peak_rate()) * up;
  // The largest bin is one burst; the p95 says whether the week's busy
  // hours, not one 5-minute bin, reach the purchased capacity.
  const double p95_gbps = rate_to_gbps(series.all.rate_quantile(0.95)) * up;
  using analysis::ComparisonRow;
  std::fputs(
      analysis::comparison_table(
          "Figure 11 headline numbers",
          {
              {"peak burden", "34 Gbps (> 30 Gbps purchased)",
               TextTable::num(peak_gbps, 1) + " Gbps"},
              {"peak exceeds purchased capacity", "yes (day 7)",
               peak_gbps > 30.0 ? "yes" : "no"},
              {"p95 of the week's 5-minute bins", "n/a (not reported)",
               TextTable::num(p95_gbps, 1) + " Gbps"},
              {"highly-popular share of burden", "~40%",
               analysis::fmt_pct(total_all > 0 ? total_hp / total_all : 0.0)},
              {"rejected fetch requests", "1.5%",
               analysis::fmt_pct(static_cast<double>(result.fetch_rejections) /
                              (result.fetch_admissions +
                               result.fetch_rejections))},
          })
          .c_str(),
      stdout);
  return 0;
}
