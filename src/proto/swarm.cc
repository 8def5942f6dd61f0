#include "proto/swarm.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/observer.h"
#include "snapshot/format.h"

namespace odr::proto {
namespace {

// Field tags for serialized swarm state (inline in the owner's section).
enum : std::uint16_t {
  kTagSeedMean = 48,
  kTagLeecherMean = 49,
  kTagPerSeedRate = 42,
  kTagHasSeedbox = 43,
  kTagSeedboxRate = 44,
  kTagTrafficFactor = 45,
  kTagSeeds = 46,
  kTagLeechers = 47,
};

}  // namespace

Swarm::Swarm(Protocol protocol, double weekly_popularity,
             const SwarmParams& params, Rng& rng)
    : params_(params), protocol_(protocol) {
  assert(is_p2p(protocol));
  const double scale =
      protocol == Protocol::kEmule ? params_.emule_scale : 1.0;
  const double popularity = std::max(0.0, weekly_popularity);
  seed_mean_ = scale * (params_.base_seed_mean +
                        params_.seeds_per_popularity *
                            std::pow(popularity,
                                     params_.seeds_popularity_exponent));
  leecher_mean_ = scale * params_.leechers_per_popularity * popularity;
  // Per-seed upload quality varies across swarms (consumer uplinks).
  per_seed_rate_ = params_.seed_upload_median *
                   std::exp(rng.normal(0.0, params_.seed_upload_sigma));
  if (protocol == Protocol::kEmule) per_seed_rate_ *= params_.emule_scale;
  traffic_factor_ =
      rng.uniform(params_.traffic_factor_lo, params_.traffic_factor_hi);
  has_seedbox_ =
      rng.bernoulli(1.0 - std::exp(-seed_mean_ / params_.seedbox_scale));
  seedbox_rate_ = rng.uniform(params_.seedbox_rate_lo, params_.seedbox_rate_hi);
  // Stationary populations: a birth-death process with arrival rate lambda
  // and mean lifetime L has mean population lambda*L; we draw the initial
  // state from the stationary Poisson directly.
  seeds_ = static_cast<std::uint32_t>(rng.poisson(seed_mean_));
  leechers_ = static_cast<std::uint32_t>(rng.poisson(leecher_mean_));
}

double Swarm::departure_prob(SimTime dt) const {
  return -std::expm1(-static_cast<double>(dt) /
                     static_cast<double>(params_.peer_lifetime));
}

std::uint32_t Swarm::advance_population(std::uint32_t n,
                                        double stationary_mean, double leave,
                                        Rng& rng) {
  // Arrivals in (0, dt] that are still present number
  // Poisson(λL(1 − e^{−dt/L})).
  const std::uint64_t survivors = n - rng.binomial(n, leave);
  return static_cast<std::uint32_t>(survivors +
                                    rng.poisson(stationary_mean * leave));
}

void Swarm::advance(SimTime dt, Rng& rng) {
  if (dt <= 0) return;
  const std::uint64_t draws = rng.draw_count();
  const double leave = departure_prob(dt);
  seeds_ = advance_population(seeds_, seed_mean_, leave, rng);
  leechers_ = advance_population(leechers_, leecher_mean_, leave, rng);
  ODR_COUNT("proto.swarm.ticks");
  ODR_COUNT_N("proto.swarm.draws", rng.draw_count() - draws);
  ODR_HIST("proto.swarm.seeds", 0.0, 128.0, 32, static_cast<double>(seeds_));
  ODR_HIST("proto.swarm.leechers", 0.0, 256.0, 32,
           static_cast<double>(leechers_));
}

SimTime Swarm::gap_at_rate(double weight, Rng& rng) const {
  if (!(weight > 0.0)) return kTimeNever;
  const std::uint64_t draws = rng.draw_count();
  const double gap_s =
      rng.exponential(to_seconds(params_.peer_lifetime) / weight);
  ODR_COUNT_N("proto.swarm.draws", rng.draw_count() - draws);
  // Beyond ~30,000 years the event is as good as never (and would overflow
  // SimTime).
  return gap_s < 1e12 ? from_seconds(gap_s) : kTimeNever;
}

SimTime Swarm::next_seed_gap(Rng& rng) const {
  // Seeds arrive at rate λ = λL / L.
  return gap_at_rate(seed_mean_, rng);
}

void Swarm::seed_arrives(SimTime dt, Rng& rng) {
  assert(seeds_ == 0);
  const std::uint64_t draws = rng.draw_count();
  leechers_ =
      advance_population(leechers_, leecher_mean_, departure_prob(dt), rng);
  seeds_ = 1;
  ODR_COUNT("proto.swarm.ticks");
  ODR_COUNT_N("proto.swarm.draws", rng.draw_count() - draws);
}

SimTime Swarm::next_change_gap(Rng& rng) const {
  // Each present peer leaves at rate 1/L and each population gains peers
  // at rate λL/L.
  return gap_at_rate(static_cast<double>(seeds_) +
                         static_cast<double>(leechers_) + seed_mean_ +
                         leecher_mean_,
                     rng);
}

void Swarm::change_once(Rng& rng) {
  const double seeds = static_cast<double>(seeds_);
  const double leechers = static_cast<double>(leechers_);
  const std::uint64_t draws = rng.draw_count();
  const double u =
      rng.uniform() * (seeds + leechers + seed_mean_ + leecher_mean_);
  ODR_COUNT_N("proto.swarm.draws", rng.draw_count() - draws);
  if (u < seeds) {
    --seeds_;
  } else if (u < seeds + leechers) {
    --leechers_;
  } else if (u < seeds + leechers + seed_mean_) {
    ++seeds_;
  } else {
    ++leechers_;
  }
}

Rate Swarm::downloader_rate() const {
  if (seeds_ == 0) {
    // Seedless swarm: leechers can only trade the pieces they already
    // hold; without a full copy online the transfer makes no forward
    // progress, which is exactly the stagnation that § 4.1's timeout rule
    // turns into a failure.
    return 0.0;
  }
  // With seeds online, the per-downloader rate is set by per-slot uplink
  // bandwidth and grows only logarithmically with the seed count (more
  // parallel slots, same asymmetric uplinks).
  const double slot_gain =
      1.0 + params_.seed_log_gain *
                std::log2(1.0 + static_cast<double>(seeds_));
  const double from_leechers =
      params_.leecher_exchange_factor *
      std::log2(1.0 + static_cast<double>(leechers_)) * 0.25;
  const Rate consumer_rate = per_seed_rate_ * (slot_gain + from_leechers);
  // A seedbox serves each connection at near line rate; its presence makes
  // the swarm as fast as the downloader's own access link.
  return has_seedbox_ ? consumer_rate + seedbox_rate_ : consumer_rate;
}

double Swarm::bandwidth_multiplier() const {
  // Each leecher re-uploads a fraction of what it receives; with L active
  // leechers exchanging, one unit of injected seed bandwidth is served to
  // roughly 1 + f*L downloaders (diminishing with churn).
  return 1.0 + params_.leecher_exchange_factor *
                   std::sqrt(static_cast<double>(leechers_));
}

void Swarm::save(snapshot::SnapshotWriter& w) const {
  w.f64(kTagSeedMean, seed_mean_);
  w.f64(kTagLeecherMean, leecher_mean_);
  w.f64(kTagPerSeedRate, per_seed_rate_);
  w.b(kTagHasSeedbox, has_seedbox_);
  w.f64(kTagSeedboxRate, seedbox_rate_);
  w.f64(kTagTrafficFactor, traffic_factor_);
  w.u32(kTagSeeds, seeds_);
  w.u32(kTagLeechers, leechers_);
}

Swarm Swarm::restored(Protocol protocol, const SwarmParams& params,
                      snapshot::SnapshotReader& r) {
  Swarm s(protocol, params);
  s.seed_mean_ = r.f64(kTagSeedMean);
  s.leecher_mean_ = r.f64(kTagLeecherMean);
  s.per_seed_rate_ = r.f64(kTagPerSeedRate);
  s.has_seedbox_ = r.b(kTagHasSeedbox);
  s.seedbox_rate_ = r.f64(kTagSeedboxRate);
  s.traffic_factor_ = r.f64(kTagTrafficFactor);
  s.seeds_ = r.u32(kTagSeeds);
  s.leechers_ = r.u32(kTagLeechers);
  return s;
}

}  // namespace odr::proto
