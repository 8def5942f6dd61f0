// Figure 10: request popularity vs pre-downloading failure ratio.
//
// Paper: failure is strongly anti-correlated with popularity; unpopular
// files ([0,7) requests/week, 93.2% of files, 36% of requests) fail at
// ~13% in the cloud, while highly popular files ((84, max]) almost never
// fail. Overall failure 8.7% with the cache; 16.4% in the no-cache
// counterfactual.
#include <cstdio>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "analysis/report.h"
#include "snapshot/world.h"
#include "util/args.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace odr;
  ArgParser args("Figure 10: popularity vs pre-download failure ratio.");
  args.flag("divisor", "200", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "random seed");
  if (!args.parse(argc, argv)) return 1;

  const auto config = analysis::make_scaled_config(
      args.get_double("divisor", 1.0, analysis::kMaxDivisor),
      static_cast<std::uint64_t>(args.get_int("seed")));
  const auto result = analysis::run_cloud_replay(config);

  // Fig 10's x-axis: popularity 0..200+, here bucketed.
  const std::vector<double> bounds = {0, 2, 4, 7, 15, 30, 50, 84, 130, 200, 1e9};
  const auto buckets = analysis::failure_by_popularity(result.outcomes, bounds);

  TextTable table({"weekly popularity", "class", "requests", "failure ratio"});
  for (const auto& b : buckets) {
    const auto cls = workload::classify_popularity(b.popularity_lo);
    table.add_row({TextTable::num(b.popularity_lo, 0) + "-" +
                       (b.popularity_hi > 1e8
                            ? std::string("max")
                            : TextTable::num(b.popularity_hi, 0)),
                   std::string(workload::popularity_class_name(cls)),
                   std::to_string(b.requests),
                   TextTable::pct(b.failure_ratio())});
  }
  std::fputs(banner("Figure 10: popularity vs failure (cloud)").c_str(),
             stdout);
  std::fputs(table.render().c_str(), stdout);

  // Failure counts come from the shared attribution taxonomy — the same
  // (stage, cause, popularity) keying the live span pipeline folds — so
  // this bench and cloud_week's attribution table can never disagree.
  const auto by_class = analysis::failure_by_class(result.outcomes);
  const auto taxonomy = analysis::taxonomy_from_outcomes(result.outcomes);
  const std::uint64_t failures = taxonomy.count_for_stage("vm_fetch");

  using analysis::fmt_pct;
  using workload::PopularityClass;
  std::fputs(
      analysis::comparison_table(
          "Figure 10 / §4.1 headline ratios",
          {
              {"unpopular-file failure ratio", "13%",
               fmt_pct(by_class.ratio(PopularityClass::kUnpopular))},
              {"requests to unpopular files", "36%",
               fmt_pct(
                   by_class.share_of_requests(PopularityClass::kUnpopular))},
              {"requests to highly popular files", "39%",
               fmt_pct(by_class.share_of_requests(
                   PopularityClass::kHighlyPopular))},
              {"highly-popular failure ratio", "~0%",
               fmt_pct(by_class.ratio(PopularityClass::kHighlyPopular))},
              {"overall failure (with cache)", "8.7%",
               fmt_pct(static_cast<double>(failures) /
                       result.outcomes.size())},
          })
          .c_str(),
      stdout);

  std::fputs(analysis::taxonomy_table(
                 "Figure 10 failure taxonomy (stage x cause x popularity)",
                 taxonomy)
                 .c_str(),
             stdout);

  // No-cache counterfactual: replay with a zero-capacity storage pool.
  auto nocache = config;
  nocache.cloud.storage_capacity = 0;
  nocache.warmup_weeks = 0;
  // Every request now pre-downloads; give the VM pool matching headroom so
  // queueing does not distort the failure ratio.
  nocache.cloud.predownloader_count = nocache.requests.num_requests;
  const auto nocache_result = analysis::run_cloud_replay(nocache);
  std::size_t nocache_failures = 0;
  for (const auto& o : nocache_result.outcomes) {
    if (!o.pre.success) ++nocache_failures;
  }
  std::printf("\nno-cache counterfactual failure ratio: %.1f%% (paper: "
              "16.4%%)\n",
              100.0 * static_cast<double>(nocache_failures) /
                  nocache_result.outcomes.size());
  return 0;
}
