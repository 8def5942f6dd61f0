// Figures 13 and 14 + §5.2 failure breakdown: smart-AP pre-downloading
// performance on the sampled Unicom workload, compared with the cloud.
//
// Paper anchors: AP pre-download speed median 27 / avg 64 KBps (max 2.37
// MBps for HiWiFi/MiWiFi, 0.93 MBps for Newifi); delay median 77 / avg
// 402 min; overall failure 16.8%, unpopular 42%; failure causes: 86%
// insufficient seeds, 10% poor HTTP/FTP, 4% system bugs.
#include <cstdio>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "analysis/report.h"
#include "snapshot/world.h"
#include "util/args.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace odr;
  ArgParser args("Figures 13-14: smart-AP pre-download speed/delay CDFs.");
  args.flag("divisor", "200", "scale divisor vs the measured system");
  args.flag("sample", "999", "sampled requests (split over the 3 APs)");
  args.flag("seed", "20151028", "random seed");
  if (!args.parse(argc, argv)) return 1;

  analysis::ApReplayConfig config;
  config.experiment = analysis::make_scaled_config(
      args.get_double("divisor", 1.0, analysis::kMaxDivisor),
      static_cast<std::uint64_t>(args.get_int("seed")));
  config.sample_size = static_cast<std::size_t>(args.get_int("sample", 1));
  const auto ap = analysis::run_ap_replay(config);

  EmpiricalCdf ap_speed, ap_delay;
  std::size_t unpopular = 0, unpopular_failed = 0;
  double max_speed_hiwifi_miwifi = 0.0, max_speed_newifi = 0.0;
  for (const auto& t : ap.tasks) {
    ap_speed.add(rate_to_kbps(t.result.average_rate));
    ap_delay.add(to_minutes(t.result.duration()));
    if (t.ap_name == "Newifi") {
      max_speed_newifi = std::max(max_speed_newifi,
                                  rate_to_kbps(t.result.peak_rate));
    } else {
      max_speed_hiwifi_miwifi = std::max(max_speed_hiwifi_miwifi,
                                         rate_to_kbps(t.result.peak_rate));
    }
    if (workload::classify_popularity(t.weekly_popularity) ==
        workload::PopularityClass::kUnpopular) {
      ++unpopular;
      if (!t.result.success) ++unpopular_failed;
    }
  }

  // Cloud comparison curves (the dashed line of Figs 13-14).
  const auto cloud = analysis::run_cloud_replay(config.experiment);
  const auto cloud_cdfs = analysis::collect_speed_delay(cloud.outcomes);

  const Summary speed = ap_speed.summary();
  const Summary delay = ap_delay.summary();
  const double n = static_cast<double>(ap.tasks.size());

  using analysis::ComparisonRow;
  using analysis::fmt_kbps;
  using analysis::fmt_minutes;
  using analysis::fmt_pct;
  std::fputs(
      analysis::comparison_table(
          "Figures 13-14: AP pre-download performance",
          {
              {"pre-download speed med/avg", "27 / 64 KBps",
               fmt_kbps(speed.median) + " / " + fmt_kbps(speed.mean)},
              {"max speed, HiWiFi/MiWiFi", "2370 KBps",
               fmt_kbps(max_speed_hiwifi_miwifi)},
              {"max speed, Newifi (NTFS flash)", "930 KBps",
               fmt_kbps(max_speed_newifi)},
              {"pre-download delay med/avg", "77 / 402 min",
               fmt_minutes(delay.median) + " / " + fmt_minutes(delay.mean)},
              {"cloud speed med/avg (same world)", "25 / 69 KBps",
               fmt_kbps(cloud_cdfs.predownload_speed_kbps.median()) + " / " +
                   fmt_kbps(cloud_cdfs.predownload_speed_kbps.mean())},
          })
          .c_str(),
      stdout);

  // The §5.2 cause breakdown comes from the shared attribution taxonomy
  // (same keying the live span pipeline folds), not ad-hoc counters.
  const auto taxonomy = analysis::taxonomy_from_ap_tasks(ap.tasks);
  const double ap_failures = static_cast<double>(taxonomy.total());
  std::fputs(
      analysis::comparison_table(
          "§5.2: AP pre-download failures",
          {
              {"overall failure ratio", "16.8%", fmt_pct(ap_failures / n)},
              {"unpopular-file failure ratio", "42%",
               fmt_pct(unpopular == 0
                           ? 0.0
                           : static_cast<double>(unpopular_failed) /
                                 unpopular)},
              {"cause: insufficient seeds", "86%",
               fmt_pct(taxonomy.cause_share("insufficient-seeds"))},
              {"cause: poor HTTP/FTP connection", "10%",
               fmt_pct(taxonomy.cause_share("poor-http-connection"))},
              {"cause: system bugs", "4%",
               fmt_pct(taxonomy.cause_share("system-bug"))},
          })
          .c_str(),
      stdout);

  std::fputs(analysis::taxonomy_table(
                 "AP failure taxonomy (stage x cause x popularity)", taxonomy)
                 .c_str(),
             stdout);

  // Per-device breakdown (the paper reports per-AP maxima; the shipping
  // storage configurations differ, §5.1).
  {
    TextTable per_ap({"AP", "tasks", "failure", "speed med (KBps)",
                      "speed max (KBps)", "delay med (min)"});
    for (const char* name : {"HiWiFi (1S)", "MiWiFi", "Newifi"}) {
      EmpiricalCdf speed, delay;
      std::size_t n = 0, failures = 0;
      for (const auto& t : ap.tasks) {
        if (t.ap_name != name) continue;
        ++n;
        if (!t.result.success) ++failures;
        speed.add(rate_to_kbps(t.result.average_rate));
        delay.add(to_minutes(t.result.duration()));
      }
      per_ap.add_row({name, std::to_string(n),
                      TextTable::pct(n == 0 ? 0.0
                                            : static_cast<double>(failures) /
                                                  static_cast<double>(n)),
                      TextTable::num(speed.median(), 0),
                      TextTable::num(speed.max(), 0),
                      TextTable::num(delay.median(), 0)});
    }
    std::fputs(banner("Per-AP breakdown").c_str(), stdout);
    std::fputs(per_ap.render().c_str(), stdout);
  }

  std::fputs(analysis::cdf_table("Figure 13 series: AP pre-download speed",
                                 "KBps", ap_speed, 16)
                 .c_str(),
             stdout);
  std::fputs(analysis::cdf_table("Figure 14 series: AP pre-download delay",
                                 "minutes", ap_delay, 16)
                 .c_str(),
             stdout);
  return 0;
}
