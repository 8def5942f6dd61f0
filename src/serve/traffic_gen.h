// Open-loop traffic generation for live-service mode.
//
// The replay drivers (analysis/replay) schedule a FIXED request trace:
// arrivals are decided before the first event runs, so the system can
// never be offered more load than the trace carries and overload shows up
// only as longer completion times. Parsonson et al. (PAPERS.md, traffic
// generation for data-centre benchmarking) make the case that open-loop
// generation — arrivals sampled from interarrival/size distributions,
// independent of completions — is what exposes saturation behavior:
// arrivals keep coming whether or not the service keeps up, so queues
// grow, admission control engages, and the p99 knee becomes measurable.
//
// TrafficGen is that generator. It samples arrival times from a
// nonhomogeneous Poisson process (piecewise-constant base rate plan,
// optionally modulated by the calibrated diurnal shape of
// workload::RequestGenerator and by a flash-crowd window) via thinning,
// and draws the (user, file) pair for each arrival through the exact
// sampling hook the batch generator uses
// (RequestGenerator::sample_arrival) — so sizes follow the Fig-5 mixture,
// popularity follows the §4.1 broken power law, and fetch-at-most-once
// dedup still holds. Everything is driven by one private Rng stream:
// same seed + same config => identical arrival sequence, bit for bit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/request_gen.h"
#include "workload/trace.h"
#include "workload/user_model.h"

namespace odr::serve {

// One rung of the offered-load plan: `tasks_per_sec` sustained for
// `duration` (before modulation).
struct RatePhase {
  SimTime duration = 0;
  double tasks_per_sec = 0.0;
};

// A flash crowd: within [start, start+duration) the arrival rate is
// multiplied by `rate_multiplier`, and `hot_file_fraction` of the surge's
// arrivals target one specific file (a release everyone wants at once),
// concentrating load the way the paper's day-7 bandwidth crunch did.
struct FlashCrowdSpec {
  SimTime start = 0;
  SimTime duration = 0;
  double rate_multiplier = 1.0;
  double hot_file_fraction = 0.0;
  workload::FileIndex hot_file = 0;

  bool active_at(SimTime t) const {
    return duration > 0 && t >= start && t < start + duration;
  }
  bool enabled() const {
    return duration > 0 && (rate_multiplier > 1.0 || hot_file_fraction > 0.0);
  }
};

struct TrafficGenConfig {
  std::vector<RatePhase> phases;
  // Diurnal modulation: multiply the phase rate by the calibrated
  // relative_intensity shape (<= 1, peaking at diurnal_shape.peak_hour).
  bool diurnal = false;
  workload::RequestGenParams diurnal_shape;
  FlashCrowdSpec flash;
  // Fetch-at-most-once dedup set cap: a long-lived service would grow the
  // (user, file) set without bound, so it is cleared when it exceeds this
  // (modeling dedup over a rolling epoch). Deterministic either way.
  std::size_t dedup_capacity = 1u << 22;
};

class TrafficGen {
 public:
  // Arrival gaps are clamped to at least kMinGap, so no plan can offer
  // more than kMaxRate tasks/sec; a faster plan would run at the clamp.
  static constexpr SimTime kMinGap = kUsec;
  static constexpr double kMaxRate = static_cast<double>(kSec / kMinGap);
  // The most arrivals one load run may offer in all, summed over its rate
  // plans at their nominal (unmodulated) rates: ~20 min of engine time at
  // ~1e5 tasks/s, and ~13,000x bench/serve_load's default run. kMaxRate
  // alone admits 1e6 tasks/s for any duration.
  static constexpr double kMaxArrivals = 1e8;

  TrafficGen(const TrafficGenConfig& config, const workload::Catalog& catalog,
             const workload::UserPopulation& users, Rng rng);

  // Samples the next arrival (strictly after the previous one) into `out`,
  // including its request_time; returns false once the rate plan is
  // exhausted. Open loop: nothing here ever waits on task completions.
  bool next(workload::WorkloadRecord& out);

  // Offered rate at time t, tasks/sec, including diurnal and flash-crowd
  // modulation (exposed for tests and the bench report).
  double rate_at(SimTime t) const;
  // Upper bound on rate_at over the whole plan (the thinning envelope).
  double peak_rate() const { return peak_rate_; }
  SimTime plan_end() const { return plan_end_; }

  std::uint64_t generated() const { return generated_; }
  // Arrivals skipped because 16 dedup attempts all collided (rare).
  std::uint64_t dedup_skips() const { return dedup_skips_; }

 private:
  TrafficGenConfig config_;
  const workload::Catalog& catalog_;
  const workload::UserPopulation& users_;
  workload::RequestGenerator diurnal_;  // relative_intensity reuse
  Rng rng_;

  SimTime plan_end_ = 0;
  double peak_rate_ = 0.0;
  SimTime clock_ = 0;  // time of the last candidate arrival
  std::uint64_t generated_ = 0;
  std::uint64_t dedup_skips_ = 0;
  workload::FetchedPairs seen_;
};

}  // namespace odr::serve
