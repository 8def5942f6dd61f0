#include "serve/traffic_gen.h"

#include <algorithm>
#include <cmath>

namespace odr::serve {

TrafficGen::TrafficGen(const TrafficGenConfig& config,
                       const workload::Catalog& catalog,
                       const workload::UserPopulation& users, Rng rng)
    : config_(config),
      catalog_(catalog),
      users_(users),
      diurnal_(config.diurnal_shape),
      rng_(rng) {
  for (const RatePhase& p : config_.phases) plan_end_ += p.duration;
  // Thinning envelope: the diurnal factor is <= 1 by construction, so the
  // peak is the largest phase rate times the flash-crowd surge (if any).
  double max_phase = 0.0;
  for (const RatePhase& p : config_.phases) {
    max_phase = std::max(max_phase, p.tasks_per_sec);
  }
  const double surge =
      config_.flash.enabled() ? std::max(1.0, config_.flash.rate_multiplier)
                              : 1.0;
  peak_rate_ = max_phase * surge;
  seen_.reserve(1u << 16);
}

double TrafficGen::rate_at(SimTime t) const {
  if (t < 0 || t >= plan_end_) return 0.0;
  double base = 0.0;
  SimTime phase_start = 0;
  for (const RatePhase& p : config_.phases) {
    if (t < phase_start + p.duration) {
      base = p.tasks_per_sec;
      break;
    }
    phase_start += p.duration;
  }
  double rate = base;
  if (config_.diurnal) rate *= diurnal_.relative_intensity(t);
  if (config_.flash.active_at(t)) {
    rate *= std::max(1.0, config_.flash.rate_multiplier);
  }
  return rate;
}

bool TrafficGen::next(workload::WorkloadRecord& out) {
  if (peak_rate_ <= 0.0) return false;
  const double mean_gap_sec = 1.0 / peak_rate_;
  for (;;) {
    // Candidate from the homogeneous envelope process, thinned by the
    // instantaneous rate. Gaps are clamped to >= kMinGap so arrival times
    // stay strictly increasing (the event queue's tie-break would still
    // be deterministic, but distinct times keep latency math simple).
    const SimTime gap = std::max<SimTime>(
        kMinGap, static_cast<SimTime>(rng_.exponential(mean_gap_sec) *
                                      static_cast<double>(kSec)));
    clock_ += gap;
    if (clock_ >= plan_end_) return false;
    if (rng_.uniform() * peak_rate_ > rate_at(clock_)) continue;  // thinned

    if (seen_.size() > config_.dedup_capacity) seen_.clear();

    // Flash-crowd hot-file override: one bernoulli draw while the window
    // is active keeps the draw sequence aligned whether or not the
    // override lands (a collision falls through to the generic sampler).
    const FlashCrowdSpec& flash = config_.flash;
    if (flash.active_at(clock_) && flash.hot_file_fraction > 0.0 &&
        flash.hot_file < catalog_.size() &&
        rng_.bernoulli(flash.hot_file_fraction)) {
      const workload::UserId user = users_.sample(rng_);
      if (workload::first_fetch(seen_, user, flash.hot_file)) {
        out = {static_cast<workload::TaskId>(++generated_), user,
               flash.hot_file, clock_};
        return true;
      }
    }

    if (workload::RequestGenerator::sample_arrival(
            catalog_, users_, rng_, clock_,
            static_cast<workload::TaskId>(generated_ + 1), seen_, out)) {
      ++generated_;
      return true;
    }
    ++dedup_skips_;  // 16 collisions in a row; skip this arrival slot
  }
}

}  // namespace odr::serve
