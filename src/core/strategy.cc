#include "core/strategy.h"

namespace odr::core {

Decision decide_with(Strategy strategy, const Redirector& redirector,
                     const DecisionInput& input) {
  switch (strategy) {
    case Strategy::kOdr:
      return redirector.decide(input);
    case Strategy::kCloudOnly: {
      Decision d;
      d.route = Route::kCloud;
      d.rationale = "baseline: always the cloud";
      return d;
    }
    case Strategy::kApOnly: {
      Decision d;
      d.route = Route::kSmartAp;
      d.rationale = "baseline: always the smart AP from the origin";
      return d;
    }
    case Strategy::kAlwaysHybrid: {
      Decision d;
      d.route = Route::kCloudThenSmartAp;
      d.rationale = "baseline: vendors' hybrid, always cloud -> AP -> user";
      return d;
    }
    case Strategy::kHedged: {
      // ODR picks the primary route; the executor launches the clone on a
      // disjoint backend (budget and breakers permitting).
      Decision d = redirector.decide(input);
      d.hedge = true;
      return d;
    }
    case Strategy::kAms: {
      Decision d;
      if (workload::classify_popularity(input.weekly_popularity) ==
              workload::PopularityClass::kHighlyPopular &&
          proto::is_p2p(input.protocol)) {
        d.route = Route::kUserDevice;
        d.rationale = "AMS: popular file, peer-assisted mode";
      } else {
        d.route = Route::kCloud;
        d.rationale = "AMS: unpopular file, cloud mode";
      }
      return d;
    }
  }
  return {};
}

}  // namespace odr::core
