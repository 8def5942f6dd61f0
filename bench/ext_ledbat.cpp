// Extension bench: LEDBAT background transport on the cloud uplink (§6.1).
//
// The paper suggests LEDBAT (RFC 6817) to "further mitigate the cloud-side
// upload bandwidth burden": background transfers (e.g. swarm seeding,
// pre-staging) should scavenge the uplink when it is idle and yield when
// foreground fetches arrive. This bench runs a background flow under the
// controller against a synthetic foreground duty cycle and reports how
// much capacity it scavenges vs how far it backs off under load.
#include <cfloat>
#include <cstdio>

#include "net/network.h"
#include "proto/ledbat.h"
#include "sim/simulator.h"
#include "util/args.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace odr;
  ArgParser args("LEDBAT background-transport behaviour on a busy uplink.");
  args.flag("capacity_mbps", "100", "uplink capacity");
  if (!args.parse(argc, argv)) return 1;

  const Rate capacity =
      mbps_to_rate(args.get_double("capacity_mbps", DBL_MIN));

  TextTable table({"foreground load", "bg rate idle phase (Mbps)",
                   "bg rate busy phase (Mbps)", "yield factor"});
  for (double load : {0.5, 0.8, 0.95}) {
    sim::Simulator sim;
    net::Network net(sim);
    const net::LinkId uplink = net.add_link("cloud-uplink", capacity);

    const net::FlowHandle background =
        net.start_flow({{uplink}, 1ull << 50, kbps_to_rate(4.0), nullptr});
    proto::LedbatController::Params params;
    params.max_rate = capacity;
    proto::LedbatController ledbat(sim, net, background, uplink, params);
    ledbat.start();

    // Idle phase: let the controller ramp for 30 minutes.
    sim.run_until(30 * kMinute);
    const Rate idle_rate = ledbat.current_rate();

    // Busy phase: foreground fetches occupy `load` of the uplink.
    net.start_flow({{uplink}, 1ull << 50, capacity * load, nullptr});
    sim.run_until(90 * kMinute);
    const Rate busy_rate = ledbat.current_rate();

    table.add_row({TextTable::pct(load),
                   TextTable::num(rate_to_mbps(idle_rate), 1),
                   TextTable::num(rate_to_mbps(busy_rate), 2),
                   TextTable::num(idle_rate / std::max(1.0, busy_rate), 0) +
                       "x"});
  }
  std::fputs(banner("LEDBAT: scavenge when idle, yield under foreground "
                    "load (RFC 6817 control law)")
                 .c_str(),
             stdout);
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
