// Figures 6 and 7: popularity distribution of requested files, with Zipf
// and stretched-exponential fits.
//
// The paper fits both models to the measured rank-popularity data and
// reports the SE model (a=0.010, b=1.134, c=0.01; mean relative error
// 13.7%) fitting better than Zipf (a=1.034, b=14.444; 15.3%) because of
// the fetch-at-most-once behaviour of P2P video files. We generate a
// week's trace, measure per-file request counts, fit both models and
// compare their errors the same way.
#include <algorithm>
#include <cstdio>

#include "analysis/replay.h"
#include "analysis/report.h"
#include "util/args.h"
#include "util/fit.h"
#include "util/table.h"
#include "workload/catalog.h"
#include "workload/request_gen.h"
#include "workload/user_model.h"

int main(int argc, char** argv) {
  using namespace odr;
  ArgParser args("Figures 6-7: popularity distribution and model fits.");
  args.flag("divisor", "100", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "random seed");
  if (!args.parse(argc, argv)) return 1;

  const double divisor = args.get_double("divisor", 1.0, analysis::kMaxDivisor);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed")));

  workload::CatalogParams cp;
  cp.num_files = static_cast<std::size_t>(analysis::kMeasuredFiles / divisor);
  cp.total_weekly_requests = 4084417 / divisor;
  const workload::Catalog catalog(cp, rng);

  workload::UserModelParams up;
  up.num_users = static_cast<std::size_t>(783944 / divisor);
  const workload::UserPopulation users(up, rng);

  workload::RequestGenParams gp;
  gp.num_requests = static_cast<std::size_t>(4084417 / divisor);
  const workload::RequestGenerator generator(gp);
  const auto trace = generator.generate(catalog, users, rng);

  // Measured popularity: per-file request counts, sorted descending.
  std::vector<double> counts(catalog.size(), 0.0);
  for (const auto& r : trace) counts[r.file] += 1.0;
  std::sort(counts.begin(), counts.end(), std::greater<>());
  while (!counts.empty() && counts.back() == 0.0) counts.pop_back();

  const ZipfFit zipf = fit_zipf(counts);
  const SeFit se = fit_stretched_exponential(counts, 0.01);

  using analysis::ComparisonRow;
  std::fputs(
      analysis::comparison_table(
          "Figures 6-7: rank-popularity model fits",
          {
              {"requests / unique files",
               "4,084,417 / 563,517",
               std::to_string(trace.size()) + " / " +
                   std::to_string(counts.size())},
              {"Zipf slope a1", "1.034", TextTable::num(zipf.a, 3)},
              {"Zipf fit: mean relative error", "15.3%",
               analysis::fmt_pct(zipf.mean_relative_error)},
              {"SE slope a2 (c=0.01)", "0.010", TextTable::num(se.a, 4)},
              {"SE intercept b2", "1.134", TextTable::num(se.b, 3)},
              {"SE fit: mean relative error", "13.7%",
               analysis::fmt_pct(se.mean_relative_error)},
              {"better-fitting model", "SE",
               se.mean_relative_error < zipf.mean_relative_error ? "SE"
                                                                 : "Zipf"},
          })
          .c_str(),
      stdout);

  // The rank/popularity series both figures plot (log-spaced ranks).
  TextTable series({"rank", "measured", "Zipf model", "SE model"});
  for (std::size_t r = 1; r <= counts.size();
       r = std::max(r + 1, r * 3 / 2)) {
    series.add_row({std::to_string(r), TextTable::num(counts[r - 1], 0),
                    TextTable::num(zipf.predict(static_cast<double>(r)), 1),
                    TextTable::num(se.predict(static_cast<double>(r)), 1)});
  }
  std::fputs(banner("Figures 6-7 series: popularity vs rank").c_str(), stdout);
  std::fputs(series.render().c_str(), stdout);
  return 0;
}
