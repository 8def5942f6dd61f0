// Example: replay a scaled Xuanfeng week and print §4-style statistics.
//
// Usage: cloud_week [--divisor 100] [--seed 20151028]
//                   [--metrics-out metrics.json] [--trace-out trace.json]
//                   [--spans-out spans.json] [--calibration-report]
//
// `--divisor N` runs a 1/N-scale instance of the measured system (both
// workload and cloud capacity scale, preserving every ratio).
// `--trace-out` writes a Chrome trace_event file; open it at
// https://ui.perfetto.dev (or chrome://tracing) to see the week laid out
// on per-subsystem lanes. `--trace-sample N` keeps 1-in-N flow events.
// `--spans-out` writes the sampled per-task lifecycle spans (failed and
// slowest tasks always kept) as odr.spans.v1 JSON. `--hashes-out` turns on
// in-run state hashing and writes the odr.hashes.v4 journal — feed it to
// tools/odr_bisect to triage a determinism failure (`--hash-every N` sets
// the event-count cadence). `--calibration-report`
// streams every finished span through the calibration monitor, prints the
// per-stage latency attribution and the PASS/DRIFT table vs the
// EXPERIMENTS.md targets, and exits 2 if a gated statistic drifted.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "analysis/report.h"
#include "obs/hash_journal.h"
#include "obs/observer.h"
#include "snapshot/world.h"
#include "util/args.h"
#include "util/table.h"

int main(int argc, char** argv) {
  odr::ArgParser args(
      "Replay one week of offline-downloading workload through the "
      "simulated Xuanfeng cloud.");
  args.flag("divisor", "100", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "random seed");
  args.flag("metrics-out", "", "write a metrics-registry JSON snapshot here");
  args.flag("trace-out", "", "write a Chrome trace_event JSON file here");
  args.flag("trace-sample", "1", "trace 1-in-N net/proto flow events");
  args.flag("spans-out", "", "write sampled task spans (odr.spans.v1) here");
  args.flag("hashes-out", "",
            "write in-run state hashes (odr.hashes.v4) here for odr_bisect");
  args.flag("hash-every", "4000",
            "state-hash cadence in executed events (with --hashes-out); a "
            "hash serializes live state, not the outcome history or the "
            "cache window");
  args.flag("calibration-report", "false",
            "print the calibration PASS/DRIFT table; exit 2 on gated drift");
  if (!args.parse(argc, argv)) return 1;

  const double divisor =
      args.get_double("divisor", 1.0, odr::analysis::kMaxDivisor);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const std::string metrics_out = args.get("metrics-out");
  const std::string trace_out = args.get("trace-out");
  const auto trace_sample = static_cast<std::uint32_t>(args.get_int(
      "trace-sample", 1, std::numeric_limits<std::uint32_t>::max()));
  const std::string spans_out = args.get("spans-out");
  const std::string hashes_out = args.get("hashes-out");
  const auto hash_every =
      static_cast<std::uint64_t>(args.get_int("hash-every", 1));
  const bool calibration = args.get_bool("calibration-report");
  std::unique_ptr<odr::obs::ScopedObserver> observer;
  if (!metrics_out.empty() || !trace_out.empty() || !spans_out.empty() ||
      calibration) {
    odr::obs::ObsConfig ocfg;
    ocfg.tracing = !trace_out.empty();
    ocfg.trace_sample_every_flows = trace_sample;
    ocfg.spans = !spans_out.empty() || calibration;
    ocfg.calibration = calibration;
    observer = std::make_unique<odr::obs::ScopedObserver>(ocfg);
  }

  const auto config = odr::analysis::make_scaled_config(divisor, seed);

  std::printf("Replaying %zu requests over %zu files by %zu users...\n",
              config.requests.num_requests, config.catalog.num_files,
              config.users.num_users);
  // The week keeps the default checkpoint tick (no file, no audit) so a
  // --hashes-out journal lines up event for event with the live runs
  // tools/odr_bisect compares it against; ticks never change outcomes.
  odr::snapshot::WorldOptions wopts;
  wopts.audit_at_checkpoint = false;
  if (!hashes_out.empty()) wopts.hash_every_events = hash_every;
  odr::snapshot::CloudWorld world(config, wopts);
  world.run();
  if (!hashes_out.empty()) {
    odr::obs::HashJournal journal;
    journal.cadence_events = wopts.hash_every_events;
    journal.seed = config.seed;
    journal.records = world.hashes();
    try {
      journal.write_file(hashes_out);
      std::printf("state hashes written to %s (%zu records)\n",
                  hashes_out.c_str(), journal.records.size());
    } catch (const odr::obs::HashJournalError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }
  const odr::analysis::CloudReplayResult result = std::move(world).finalize();

  const auto cdfs = odr::analysis::collect_speed_delay(result.outcomes);
  const auto pre_speed = cdfs.predownload_speed_kbps.summary();
  const auto fetch_speed = cdfs.fetch_speed_kbps.summary();
  const auto e2e_speed = cdfs.e2e_speed_kbps.summary();
  const auto pre_delay = cdfs.predownload_delay_min.summary();
  const auto fetch_delay = cdfs.fetch_delay_min.summary();
  const auto e2e_delay = cdfs.e2e_delay_min.summary();

  std::size_t pre_failures = 0;
  for (const auto& o : result.outcomes) {
    if (!o.pre.success) ++pre_failures;
  }
  const auto by_class = odr::analysis::failure_by_class(result.outcomes);
  const auto impeded = odr::analysis::impeded_breakdown(
      result.outcomes, *result.users, odr::kbps_to_rate(125.0));

  using odr::analysis::ComparisonRow;
  std::fputs(
      odr::analysis::comparison_table(
          "Cloud week replay vs paper (§4)",
          {
              {"cache hit ratio", "89%",
               odr::analysis::fmt_pct(result.cache_hit_ratio)},
              {"pre-download failure (overall)", "8.7%",
               odr::analysis::fmt_pct(static_cast<double>(pre_failures) /
                                      result.outcomes.size())},
              {"unpopular-file failure", "13%",
               odr::analysis::fmt_pct(by_class.ratio(
                   odr::workload::PopularityClass::kUnpopular))},
              {"pre-download speed med/avg", "25 / 69 KBps",
               odr::analysis::fmt_kbps(pre_speed.median) + " / " +
                   odr::analysis::fmt_kbps(pre_speed.mean)},
              {"fetch speed med/avg", "287 / 504 KBps",
               odr::analysis::fmt_kbps(fetch_speed.median) + " / " +
                   odr::analysis::fmt_kbps(fetch_speed.mean)},
              {"e2e speed med/avg", "233 / 380 KBps",
               odr::analysis::fmt_kbps(e2e_speed.median) + " / " +
                   odr::analysis::fmt_kbps(e2e_speed.mean)},
              {"pre-download delay med/avg", "82 / 370 min",
               odr::analysis::fmt_minutes(pre_delay.median) + " / " +
                   odr::analysis::fmt_minutes(pre_delay.mean)},
              {"fetch delay med/avg", "7 / 27 min",
               odr::analysis::fmt_minutes(fetch_delay.median) + " / " +
                   odr::analysis::fmt_minutes(fetch_delay.mean)},
              {"e2e delay med/avg", "10 / 68 min",
               odr::analysis::fmt_minutes(e2e_delay.median) + " / " +
                   odr::analysis::fmt_minutes(e2e_delay.mean)},
              {"impeded fetches (<125 KBps)", "28%",
               odr::analysis::fmt_pct(impeded.impeded_fraction())},
              {"  - ISP barrier", "9.6%",
               odr::analysis::fmt_pct(static_cast<double>(impeded.by_isp_barrier) /
                                      impeded.fetch_attempts)},
              {"  - low user bandwidth", "10.8%",
               odr::analysis::fmt_pct(
                   static_cast<double>(impeded.by_low_bandwidth) /
                   impeded.fetch_attempts)},
              {"  - rejected by cloud", "1.5%",
               odr::analysis::fmt_pct(static_cast<double>(impeded.by_rejection) /
                                      impeded.fetch_attempts)},
              {"  - unknown/dynamics", "6.1%",
               odr::analysis::fmt_pct(static_cast<double>(impeded.by_unknown) /
                                      impeded.fetch_attempts)},
          })
          .c_str(),
      stdout);

  const auto traffic =
      odr::analysis::traffic_cost(result.outcomes, *result.catalog);
  std::printf("\nP2P pre-download traffic: %.0f%% of file size (paper: 196%%)\n",
              traffic.p2p_overhead() * 100.0);
  std::printf("HTTP/FTP pre-download traffic: %.0f%% (paper: 107-110%%)\n",
              traffic.http_overhead() * 100.0);
  std::printf("Rejected fetches: %llu of %llu admissions+rejections\n",
              static_cast<unsigned long long>(result.fetch_rejections),
              static_cast<unsigned long long>(result.fetch_admissions +
                                              result.fetch_rejections));

  int exit_code = 0;
  if (observer != nullptr) {
    if (const auto* attribution = (*observer)->attribution()) {
      std::fputs(odr::analysis::attribution_table(*attribution).c_str(),
                 stdout);
      if (!attribution->failures().empty()) {
        std::fputs(odr::analysis::taxonomy_table(
                       "Failure taxonomy (stage x cause x popularity)",
                       attribution->failures())
                       .c_str(),
                   stdout);
      }
    }
    if (const auto* monitor = (*observer)->calibration()) {
      const auto report = monitor->report();
      std::fputs(odr::analysis::calibration_table(report).c_str(), stdout);
      if (!report.pass()) exit_code = 2;
    }
    if (!spans_out.empty()) {
      if ((*observer)->write_spans_file(spans_out)) {
        std::printf("spans written to %s\n", spans_out.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", spans_out.c_str());
        return 1;
      }
    }
    if (!metrics_out.empty()) {
      if ((*observer)->write_metrics_file(metrics_out)) {
        std::printf("metrics written to %s\n", metrics_out.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", metrics_out.c_str());
        return 1;
      }
    }
    if (!trace_out.empty()) {
      if ((*observer)->write_trace_file(trace_out)) {
        std::printf("trace written to %s (open at https://ui.perfetto.dev)\n",
                    trace_out.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
        return 1;
      }
    }
  }
  return exit_code;
}
