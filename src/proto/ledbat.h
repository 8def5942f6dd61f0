// LEDBAT-style background transport controller (extension, §6.1).
//
// The paper suggests ODR "can learn from LEDBAT (RFC 6817) to further
// mitigate the cloud-side upload bandwidth burden": background transfers
// (cloud seeding of popular swarms, deferred pre-staging) should yield to
// foreground fetch traffic. This controller implements the LEDBAT control
// law on top of the flow-level simulator. Since the simulator has no
// packet queues, queueing delay is derived from the monitored link's
// utilization with an M/M/1-shaped proxy: delay = base / (1 - rho).
//
// Control law (RFC 6817 §2.4.2): per period,
//   off_target = (TARGET - queuing_delay) / TARGET
//   rate      += GAIN * off_target * allowed_increase
// clamped to [min_rate, max_rate]; the flow's cap is set to the result, so
// a saturated link (rho -> 1) drives the background rate toward min_rate.
#pragma once

#include "net/network.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace odr::proto {

class LedbatController {
 public:
  struct Params {
    SimTime base_delay = 20 * kMsec;    // path delay at zero load
    SimTime target = 100 * kMsec;       // RFC 6817 TARGET (queuing budget)
    double gain = 0.8;                  // GAIN
    Rate allowed_increase = kbps_to_rate(64.0);  // per-period additive step
    Rate min_rate = kbps_to_rate(4.0);
    Rate max_rate = mbps_to_rate(20.0);
    SimTime period = 10 * kSec;
  };

  LedbatController(sim::Simulator& sim, net::Network& net, net::FlowHandle flow,
                   net::LinkId bottleneck, Params params);
  ~LedbatController() { stop(); }

  LedbatController(const LedbatController&) = delete;
  LedbatController& operator=(const LedbatController&) = delete;

  void start();
  void stop();

  Rate current_rate() const { return rate_; }
  // Queueing-delay proxy at utilization rho in [0, 1).
  SimTime queuing_delay(double rho) const;

 private:
  void on_tick();

  sim::Simulator& sim_;
  net::Network& net_;
  net::FlowHandle flow_;
  net::LinkId bottleneck_;
  Params params_;
  Rate rate_;
  sim::EventHandle tick_;
};

}  // namespace odr::proto
