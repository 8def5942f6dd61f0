// Figures 8 and 9: CDFs of pre-downloading / fetching / end-to-end speed
// and delay in the cloud-based system.
//
// Paper anchors (Fig 8): pre-download median 25 / avg 69 KBps, max 2.37
// MBps; fetch median 287 / avg 504 KBps, max 6.1 MBps; e2e median 233 /
// avg 380 KBps. (Fig 9): pre-download median 82 / avg 370 min; fetch
// median 7 / avg 27 min; e2e median 10 / avg 68 min.
#include <cstdio>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "analysis/report.h"
#include "snapshot/world.h"
#include "util/args.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace odr;
  ArgParser args("Figures 8-9: cloud speed and delay CDFs.");
  args.flag("divisor", "200", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "random seed");
  if (!args.parse(argc, argv)) return 1;

  const auto config = analysis::make_scaled_config(
      args.get_double("divisor", 1.0, analysis::kMaxDivisor),
      static_cast<std::uint64_t>(args.get_int("seed")));
  const auto result = analysis::run_cloud_replay(config);
  const auto cdfs = analysis::collect_speed_delay(result.outcomes);

  auto row = [](const std::string& name, const std::string& paper,
                const Summary& s, const std::string& unit) {
    return analysis::ComparisonRow{
        name, paper,
        TextTable::num(s.median, 0) + " / " + TextTable::num(s.mean, 0) +
            " / " + TextTable::num(s.max, 0) + " " + unit};
  };

  std::fputs(
      analysis::comparison_table(
          "Figure 8: speeds (median / average / max)",
          {
              row("pre-download speed (misses)", "25 / 69 / 2370 KBps",
                  cdfs.predownload_speed_kbps.summary(), "KBps"),
              row("fetch speed", "287 / 504 / 6100 KBps",
                  cdfs.fetch_speed_kbps.summary(), "KBps"),
              row("end-to-end speed", "233 / 380 / 6100 KBps",
                  cdfs.e2e_speed_kbps.summary(), "KBps"),
              {"pre-download speeds near zero", "21%",
               analysis::fmt_pct(
                   cdfs.predownload_speed_kbps.fraction_below(1.0))},
              {"fetch speeds below 125 KBps", "28%",
               analysis::fmt_pct(cdfs.fetch_speed_kbps.fraction_below(125.0))},
          })
          .c_str(),
      stdout);

  std::fputs(
      analysis::comparison_table(
          "Figure 9: delays (median / average / max)",
          {
              row("pre-download delay (misses)", "82 / 370 / 10071 min",
                  cdfs.predownload_delay_min.summary(), "min"),
              row("fetch delay", "7 / 27 / 9724 min",
                  cdfs.fetch_delay_min.summary(), "min"),
              row("end-to-end delay", "10 / 68 / 19553 min",
                  cdfs.e2e_delay_min.summary(), "min"),
          })
          .c_str(),
      stdout);

  std::fputs(analysis::cdf_table("Figure 8 series: pre-download speed",
                                 "KBps", cdfs.predownload_speed_kbps, 16)
                 .c_str(),
             stdout);
  std::fputs(analysis::cdf_table("Figure 8 series: fetch speed", "KBps",
                                 cdfs.fetch_speed_kbps, 16)
                 .c_str(),
             stdout);
  std::fputs(analysis::cdf_table("Figure 9 series: pre-download delay",
                                 "minutes", cdfs.predownload_delay_min, 16)
                 .c_str(),
             stdout);
  std::fputs(analysis::cdf_table("Figure 9 series: fetch delay", "minutes",
                                 cdfs.fetch_delay_min, 16)
                 .c_str(),
             stdout);

  std::printf("\ncache hit ratio: %.1f%% (paper: 89%%)\n",
              result.cache_hit_ratio * 100.0);
  return 0;
}
