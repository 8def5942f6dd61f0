// Example: route a replayed workload through ODR and the baselines (§6.2).
//
// Usage: odr_replay [--divisor 400] [--seed 20151028]
//                   [--metrics-out metrics.json] [--trace-out trace.json]
//                   [--spans-out spans.json]
//
// `--trace-out` writes a Chrome trace_event file covering all five
// strategy replays back to back; open it at https://ui.perfetto.dev.
// `--spans-out` writes the final (ODR) replay's sampled task spans; the
// journal is reset per strategy, so the file and the printed attribution
// table cover the last strategy in the sweep only.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "analysis/report.h"
#include "obs/observer.h"
#include "util/args.h"
#include "util/table.h"

int main(int argc, char** argv) {
  odr::ArgParser args(
      "Replay the workload under ODR and baseline routing strategies.");
  args.flag("divisor", "400", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "random seed");
  args.flag("metrics-out", "", "write a metrics-registry JSON snapshot here");
  args.flag("trace-out", "", "write a Chrome trace_event JSON file here");
  args.flag("trace-sample", "1", "trace 1-in-N net/proto flow events");
  args.flag("spans-out", "",
            "write the last (ODR) replay's task spans (odr.spans.v1) here");
  if (!args.parse(argc, argv)) return 1;

  const double divisor =
      args.get_double("divisor", 1.0, odr::analysis::kMaxDivisor);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const std::string metrics_out = args.get("metrics-out");
  const std::string trace_out = args.get("trace-out");
  const auto trace_sample = static_cast<std::uint32_t>(args.get_int(
      "trace-sample", 1, std::numeric_limits<std::uint32_t>::max()));
  const std::string spans_out = args.get("spans-out");
  std::unique_ptr<odr::obs::ScopedObserver> observer;
  if (!metrics_out.empty() || !trace_out.empty() || !spans_out.empty()) {
    odr::obs::ObsConfig ocfg;
    ocfg.tracing = !trace_out.empty();
    ocfg.trace_sample_every_flows = trace_sample;
    ocfg.spans = !spans_out.empty();
    observer = std::make_unique<odr::obs::ScopedObserver>(ocfg);
  }

  const std::vector<odr::core::Strategy> strategies = {
      odr::core::Strategy::kCloudOnly, odr::core::Strategy::kApOnly,
      odr::core::Strategy::kAlwaysHybrid, odr::core::Strategy::kAms,
      odr::core::Strategy::kOdr};

  odr::TextTable table({"strategy", "success", "impeded(B1)", "peak cloud(B2)",
                        "p95 hourly cloud(B2)", "rejected",
                        "unpopular fail(B3)", "storage(B4)", "fetch med KBps",
                        "e2e med min"});
  for (const auto strategy : strategies) {
    odr::analysis::StrategyReplayConfig config;
    config.experiment = odr::analysis::make_scaled_config(divisor, seed);
    config.strategy = strategy;
    const auto result = odr::analysis::run_strategy_replay(config);
    const auto m = odr::analysis::strategy_metrics(
        std::string(odr::core::strategy_name(strategy)), result.outcomes,
        result.duration, result.storage_throttled_fraction);
    table.add_row(
        {m.name,
         odr::TextTable::pct(static_cast<double>(m.successes) /
                             static_cast<double>(m.tasks)),
         odr::TextTable::pct(m.impeded_fraction),
         odr::TextTable::num(odr::rate_to_gbps(m.peak_cloud_burden), 3) + " Gbps",
         odr::TextTable::num(odr::rate_to_gbps(m.p95_hourly_cloud_burden), 3) +
             " Gbps",
         odr::TextTable::pct(m.rejected_fraction),
         odr::TextTable::pct(m.unpopular_failure),
         odr::TextTable::pct(m.storage_throttled),
         odr::TextTable::num(m.fetch_speed_kbps.median(), 0),
         odr::TextTable::num(m.e2e_delay_min.median, 0)});
  }
  std::fputs(odr::banner("Strategy comparison (paper Fig 16: ODR reduces "
                         "28%->9%, burden -35%, 42%->13%, B4 avoided)")
                 .c_str(),
             stdout);
  std::fputs(table.render().c_str(), stdout);

  if (observer != nullptr) {
    if (const auto* attribution = (*observer)->attribution()) {
      std::fputs(odr::analysis::attribution_table(*attribution).c_str(),
                 stdout);
      if (!attribution->failures().empty()) {
        std::fputs(odr::analysis::taxonomy_table(
                       "ODR failure taxonomy (stage x cause x popularity)",
                       attribution->failures())
                       .c_str(),
                   stdout);
      }
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
  return 0;
}
