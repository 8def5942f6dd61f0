// §4.1/§4.2 traffic-cost accounting.
//
// Paper: P2P pre-downloading costs ~196% of the file size in traffic
// (tit-for-tat); HTTP/FTP costs 107-110%; a user fetching from the cloud
// pays only 107-110%, so offloading a P2P download to the cloud saves the
// user traffic comparable to 86-89% of the file size.
#include <cstdio>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "analysis/report.h"
#include "snapshot/world.h"
#include "util/args.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace odr;
  ArgParser args("Traffic cost table (§4.1/§4.2).");
  args.flag("divisor", "200", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "random seed");
  if (!args.parse(argc, argv)) return 1;

  const auto config = analysis::make_scaled_config(
      args.get_double("divisor", 1.0, analysis::kMaxDivisor),
      static_cast<std::uint64_t>(args.get_int("seed")));
  const auto result = analysis::run_cloud_replay(config);
  const auto traffic = analysis::traffic_cost(result.outcomes, *result.catalog);

  const double saving = traffic.p2p_overhead() - traffic.user_overhead();
  using analysis::ComparisonRow;
  std::fputs(
      analysis::comparison_table(
          "Traffic cost per file byte",
          {
              {"P2P pre-download traffic / size", "196%",
               analysis::fmt_pct(traffic.p2p_overhead())},
              {"HTTP/FTP pre-download traffic / size", "107-110%",
               analysis::fmt_pct(traffic.http_overhead())},
              {"user fetch traffic / size", "107-110%",
               analysis::fmt_pct(traffic.user_overhead())},
              {"user saving vs direct P2P", "86-89% of file size",
               analysis::fmt_pct(saving)},
          })
          .c_str(),
      stdout);

  std::printf("\npre-downloaded bytes: P2P %.1f GB, HTTP/FTP %.1f GB; "
              "fetched to users %.1f GB\n",
              traffic.p2p_file_bytes / 1e9, traffic.http_file_bytes / 1e9,
              traffic.user_fetch_file_bytes / 1e9);
  return 0;
}
