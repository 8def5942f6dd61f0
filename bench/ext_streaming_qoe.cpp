// Extension bench: streaming QoE behind each routing strategy (§6.1).
//
// Translates the fetch rates of the strategy replays into view-as-download
// QoE with the buffer-based controller: the paper's 28% "impeded" fetches
// are exactly the sessions that rebuffer. ODR's routing should cut the
// rebuffering population the way it cuts the impeded fraction.
#include <cstdio>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "core/streaming.h"
#include "util/args.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace odr;
  ArgParser args("Streaming QoE (BBA) under each routing strategy.");
  args.flag("divisor", "400", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "random seed");
  if (!args.parse(argc, argv)) return 1;

  const core::BbaController bba{core::BbaParams{}};

  TextTable table({"strategy", "sessions", "median rebuffer ratio",
                   "sessions rebuffering >10%", "avg bitrate (KBps)",
                   "median startup (s)"});
  for (const auto strategy :
       {core::Strategy::kCloudOnly, core::Strategy::kAms,
        core::Strategy::kOdr}) {
    analysis::StrategyReplayConfig cfg;
    cfg.experiment = analysis::make_scaled_config(
        args.get_double("divisor", 1.0, analysis::kMaxDivisor),
        static_cast<std::uint64_t>(args.get_int("seed")));
    cfg.strategy = strategy;
    const auto result = analysis::run_strategy_replay(cfg);

    EmpiricalCdf rebuffer, startup, bitrate;
    std::size_t bad = 0, sessions = 0;
    for (const auto& o : result.outcomes) {
      if (!o.success || o.fetch_rate <= 0.0) continue;
      // Stream a typical 100-minute movie at the session's fetch rate;
      // AP-staged routes play from the LAN at full speed.
      const Rate effective = (o.route == core::Route::kSmartAp ||
                              o.route == core::Route::kCloudThenSmartAp)
                                 ? mbps_to_rate(64.0)  // LAN playback
                                 : o.fetch_rate;
      const auto qoe = core::simulate_streaming(bba, 6000.0, effective);
      ++sessions;
      rebuffer.add(qoe.rebuffer_ratio());
      startup.add(qoe.startup_delay_sec);
      bitrate.add(rate_to_kbps(qoe.average_bitrate));
      if (qoe.rebuffer_ratio() > 0.10) ++bad;
    }
    table.add_row({std::string(core::strategy_name(strategy)),
                   std::to_string(sessions),
                   TextTable::pct(rebuffer.median()),
                   TextTable::pct(sessions == 0
                                      ? 0.0
                                      : static_cast<double>(bad) / sessions),
                   TextTable::num(bitrate.mean(), 0),
                   TextTable::num(startup.median(), 1)});
  }
  std::fputs(banner("View-as-download QoE (100-min video, BBA player): ODR "
                    "removes the rebuffering population the impeded metric "
                    "counts")
                 .c_str(),
             stdout);
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
