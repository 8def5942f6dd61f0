// Extension bench: deferred pre-staging levels the Fig-11 burden (§6.1).
//
// Takes the fetch transfers of a cloud week replay and asks: if users who
// fetch in view-AFTER-download mode (latency-tolerant by definition) let
// the cloud defer their fetches by up to N hours, how much does the peak
// uplink burden drop? Sweep over the deferrable share and the patience.
#include <cstdio>

#include "analysis/replay.h"
#include "cloud/prestage.h"
#include "snapshot/world.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace odr;
  ArgParser args("Peak shaving by deferring latency-tolerant fetches.");
  args.flag("divisor", "200", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "random seed");
  if (!args.parse(argc, argv)) return 1;

  const auto config = analysis::make_scaled_config(
      args.get_double("divisor", 1.0, analysis::kMaxDivisor),
      static_cast<std::uint64_t>(args.get_int("seed")));
  const auto result = analysis::run_cloud_replay(config);

  // Fetch transfers -> prestage jobs.
  std::vector<cloud::PrestageJob> base;
  for (const auto& o : result.outcomes) {
    if (!o.pre.success || o.fetch.rejected) continue;
    cloud::PrestageJob j;
    j.start = o.fetch.start_time;
    j.duration = o.fetch.finish_time - o.fetch.start_time;
    if (j.duration <= 0) continue;
    j.rate = average_rate(o.fetch.acquired_bytes, j.duration);
    base.push_back(j);
  }

  TextTable table({"deferrable share", "patience", "peak before (Gbps)",
                   "peak after (Gbps)", "reduction"});
  const double up = args.get_double("divisor", 1.0, analysis::kMaxDivisor);
  for (const double share : {0.2, 0.5, 0.8}) {
    for (const SimTime patience : {4 * kHour, 12 * kHour}) {
      Rng rng(9);
      std::vector<cloud::PrestageJob> jobs = base;
      for (auto& j : jobs) {
        j.max_delay = rng.bernoulli(share) ? patience : 0;
      }
      const auto plan =
          cloud::plan_prestaging(jobs, config.requests.duration + kDay);
      table.add_row({TextTable::pct(share, 0),
                     TextTable::num(to_hours(patience), 0) + " h",
                     TextTable::num(rate_to_gbps(plan.peak_before) * up, 1),
                     TextTable::num(rate_to_gbps(plan.peak_after) * up, 1),
                     TextTable::pct(plan.peak_reduction())});
    }
  }
  std::fputs(banner("Deferred pre-staging: peak uplink burden vs deferrable "
                    "share and user patience (Fig 11's peak is what forces "
                    "rejections)")
                 .c_str(),
             stdout);
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
