// Ablation: max-min fair sharing vs naive equal split (DESIGN.md §5.1).
//
// The flow-level simulator allocates bandwidth by water-filling
// (max-min fairness), the standard model of competing TCP flows. The
// naive alternative — capacity/n per flow, no redistribution of the share
// capped flows leave unclaimed — wastes capacity whenever flows have
// heterogeneous caps, which is exactly the cloud-uplink situation (user
// lines from 24 KBps to 6.25 MBps share a cluster). This bench quantifies
// the difference on a synthetic cluster.
#include <cstdio>

#include "net/network.h"
#include "sim/simulator.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

using namespace odr;

namespace {

struct Result {
  double utilization = 0.0;       // of the shared link at steady state
  double median_finish_sec = 0.0;
  double p90_finish_sec = 0.0;
};

Result run_case(net::AllocationModel model, int flows, std::uint64_t seed) {
  sim::Simulator sim;
  net::Network netw(sim, model);
  const Rate capacity = mbps_to_rate(100.0);
  const net::LinkId link = netw.add_link("cluster", capacity);

  Rng rng(seed);
  EmpiricalCdf finish;
  int live = 0;
  for (int i = 0; i < flows; ++i) {
    // Heterogeneous caps mimicking user access lines: lognormal around
    // 380 KBps, clamped to 6.25 MBps.
    const Rate cap = std::min(kbps_to_rate(380.0) * std::exp(rng.normal(0, 0.9)),
                              mbps_to_rate(50.0));
    ++live;
    netw.start_flow({{link}, 200 * kMB, cap, [&, i](net::FlowId) {
                       finish.add(to_seconds(sim.now()));
                       --live;
                     }});
  }
  Result r;
  // Utilization snapshot shortly after start (all flows active).
  sim.run_until(kSec);
  r.utilization = netw.link_utilization(link) / capacity;
  sim.run();
  r.median_finish_sec = finish.median();
  r.p90_finish_sec = finish.quantile(0.9);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("Max-min fairness vs naive equal split on a shared uplink.");
  args.flag("seed", "20151028", "random seed");
  if (!args.parse(argc, argv)) return 1;
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

  TextTable table({"flows", "model", "link utilization", "median finish (s)",
                   "p90 finish (s)"});
  for (int flows : {32, 128, 512}) {
    for (auto model : {net::AllocationModel::kMaxMinFair,
                       net::AllocationModel::kEqualSplit}) {
      const Result r = run_case(model, flows, seed);
      table.add_row({std::to_string(flows),
                     model == net::AllocationModel::kMaxMinFair
                         ? "max-min fair"
                         : "equal split",
                     TextTable::pct(r.utilization),
                     TextTable::num(r.median_finish_sec, 0),
                     TextTable::num(r.p90_finish_sec, 0)});
    }
  }
  std::fputs(banner("Allocation-model ablation: equal split strands the "
                    "share slow lines leave unclaimed; max-min hands it to "
                    "fast lines (higher utilization, earlier finishes)")
                 .c_str(),
             stdout);
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
