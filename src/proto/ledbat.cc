#include "proto/ledbat.h"

#include <algorithm>
#include <cmath>

namespace odr::proto {

LedbatController::LedbatController(sim::Simulator& sim, net::Network& net,
                                   net::FlowHandle flow, net::LinkId bottleneck,
                                   Params params)
    : sim_(sim),
      net_(net),
      flow_(flow),
      bottleneck_(bottleneck),
      params_(params),
      rate_(params.min_rate) {}

void LedbatController::start() {
  if (tick_.id != sim::kInvalidEvent) return;
  net_.set_flow_cap(flow_, rate_);
  tick_ = sim_.schedule_after(params_.period, [this] { on_tick(); });
}

void LedbatController::stop() {
  sim_.cancel(tick_);
  tick_ = {};
}

SimTime LedbatController::queuing_delay(double rho) const {
  rho = std::clamp(rho, 0.0, 0.999);
  const double total =
      static_cast<double>(params_.base_delay) / (1.0 - rho);
  return static_cast<SimTime>(total) - params_.base_delay;
}

void LedbatController::on_tick() {
  tick_ = {};
  if (!net_.flow_active(flow_)) return;  // transfer finished; stop silently

  const Rate cap = net_.link_capacity(bottleneck_);
  const double rho =
      cap > 0.0 ? net_.link_utilization(bottleneck_) / cap : 1.0;
  const SimTime queuing = queuing_delay(rho);
  const double off_target =
      static_cast<double>(params_.target - queuing) /
      static_cast<double>(params_.target);
  rate_ += params_.gain * off_target * params_.allowed_increase;
  rate_ = std::clamp(rate_, params_.min_rate, params_.max_rate);
  net_.set_flow_cap(flow_, rate_);

  tick_ = sim_.schedule_after(params_.period, [this] { on_tick(); });
}

}  // namespace odr::proto
