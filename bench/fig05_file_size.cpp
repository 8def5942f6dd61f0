// Figure 5: CDF of requested file size.
//
// Paper anchors: min 4 B, median 115 MB, average 390 MB, max 4 GB, and
// 25% of requested files below 8 MB.
#include <cstdio>

#include "analysis/report.h"
#include "util/args.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/catalog.h"

int main(int argc, char** argv) {
  using namespace odr;
  ArgParser args("Figure 5: CDF of requested file size.");
  args.flag("files", "50000", "catalog size");
  args.flag("seed", "20151028", "random seed");
  if (!args.parse(argc, argv)) return 1;

  Rng rng(static_cast<std::uint64_t>(args.get_int("seed")));
  workload::CatalogParams params;
  params.num_files = static_cast<std::size_t>(args.get_int("files", 1));
  params.total_weekly_requests = 7.25 * static_cast<double>(params.num_files);
  const workload::Catalog catalog(params, rng);

  EmpiricalCdf sizes_mb;
  for (const auto& f : catalog.files()) {
    sizes_mb.add(static_cast<double>(f.size) / 1e6);
  }
  const Summary s = sizes_mb.summary();

  using analysis::ComparisonRow;
  std::fputs(
      analysis::comparison_table(
          "Figure 5: requested file size distribution",
          {
              {"min size", "4 B",
               TextTable::num(sizes_mb.min() * 1e6, 0) + " B"},
              {"median size", "115 MB", TextTable::num(s.median, 0) + " MB"},
              {"average size", "390 MB", TextTable::num(s.mean, 0) + " MB"},
              {"max size", "4 GB (4000 MB)",
               TextTable::num(s.max, 0) + " MB"},
              {"files below 8 MB", "25%",
               analysis::fmt_pct(sizes_mb.fraction_below(8.0))},
          })
          .c_str(),
      stdout);

  std::fputs(
      analysis::cdf_table("Figure 5 series: CDF of file size", "size (MB)",
                          sizes_mb, 24)
          .c_str(),
      stdout);
  return 0;
}
