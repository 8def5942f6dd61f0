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
  kTagPopularity = 40,
  kTagScale = 41,
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
    : params_(params), popularity_(weekly_popularity), protocol_(protocol) {
  assert(is_p2p(protocol));
  scale_ = protocol == Protocol::kEmule ? params_.emule_scale : 1.0;
  // Per-seed upload quality varies across swarms (consumer uplinks).
  per_seed_rate_ = params_.seed_upload_median *
                   std::exp(rng.normal(0.0, params_.seed_upload_sigma));
  if (protocol == Protocol::kEmule) per_seed_rate_ *= params_.emule_scale;
  traffic_factor_ =
      rng.uniform(params_.traffic_factor_lo, params_.traffic_factor_hi);
  has_seedbox_ = rng.bernoulli(
      1.0 - std::exp(-arrival_mean_seeds() / params_.seedbox_scale));
  seedbox_rate_ = rng.uniform(params_.seedbox_rate_lo, params_.seedbox_rate_hi);
  // Stationary populations: a birth-death process with arrival rate lambda
  // and mean lifetime L has mean population lambda*L; we draw the initial
  // state from the stationary Poisson directly.
  seeds_ = static_cast<std::uint32_t>(rng.poisson(arrival_mean_seeds()));
  leechers_ = static_cast<std::uint32_t>(rng.poisson(arrival_mean_leechers()));
}

double Swarm::arrival_mean_seeds() const {
  return scale_ * (params_.base_seed_mean +
                   params_.seeds_per_popularity *
                       std::pow(std::max(0.0, popularity_),
                                params_.seeds_popularity_exponent));
}

double Swarm::arrival_mean_leechers() const {
  return scale_ * params_.leechers_per_popularity * popularity_;
}

void Swarm::tick(SimTime dt, Rng& rng) {
  if (dt <= 0) return;
  const double frac =
      std::min(1.0, static_cast<double>(dt) / static_cast<double>(params_.peer_lifetime));
  // Departures: each peer leaves with probability dt/lifetime (clamped).
  auto depart = [&](std::uint32_t n) {
    std::uint32_t gone = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (rng.bernoulli(frac)) ++gone;
    }
    return n - gone;
  };
  seeds_ = depart(seeds_);
  leechers_ = depart(leechers_);
  // Arrivals: Poisson with intensity stationary_mean / lifetime.
  seeds_ += static_cast<std::uint32_t>(rng.poisson(arrival_mean_seeds() * frac));
  leechers_ +=
      static_cast<std::uint32_t>(rng.poisson(arrival_mean_leechers() * frac));
  ODR_COUNT("proto.swarm.ticks");
  ODR_HIST("proto.swarm.seeds", 0.0, 128.0, 32, static_cast<double>(seeds_));
  ODR_HIST("proto.swarm.leechers", 0.0, 256.0, 32,
           static_cast<double>(leechers_));
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
  w.f64(kTagPopularity, popularity_);
  w.f64(kTagScale, scale_);
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
  s.popularity_ = r.f64(kTagPopularity);
  s.scale_ = r.f64(kTagScale);
  s.per_seed_rate_ = r.f64(kTagPerSeedRate);
  s.has_seedbox_ = r.b(kTagHasSeedbox);
  s.seedbox_rate_ = r.f64(kTagSeedboxRate);
  s.traffic_factor_ = r.f64(kTagTrafficFactor);
  s.seeds_ = r.u32(kTagSeeds);
  s.leechers_ = r.u32(kTagLeechers);
  return s;
}

}  // namespace odr::proto
