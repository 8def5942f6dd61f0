// P2P swarm population and service model.
//
// A swarm's ability to serve a new downloader is driven by its seed and
// leecher populations, which in turn track the file's popularity. The
// coupling popularity -> seeds -> achievable rate is the mechanism behind
// three of the paper's findings:
//   - unpopular files stagnate and fail (Bottleneck 3, 42% AP failure);
//   - highly popular files can be fetched from the swarm as fast as from
//     the cloud ("bandwidth multiplier effect", Bottleneck 2 remedy);
//   - pre-download speeds are low-median / heavy-tailed (Fig 8/13).
//
// Seeds and leechers are each an M/M/∞ birth-death process: arrivals are
// Poisson with popularity-proportional intensity λ, and each peer departs
// independently after an exponential lifetime L, so the stationary
// population is Poisson(λL). advance(Δ) applies the exact transition over
// any interval in O(1): survivors are Binomial(n, e^{−Δ/L}) and arrivals
// Poisson(λL(1 − e^{−Δ/L})). A seedless swarm needs no advance at all
// until its next seed arrives, which next_seed_gap() samples exactly; a
// seeded one keeps its populations until its next birth or death, which
// next_change_gap() samples exactly and change_once() applies.
#pragma once

#include <cstdint>

#include "proto/protocol.h"
#include "util/rng.h"
#include "util/units.h"

namespace odr::snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace odr::snapshot

namespace odr::proto {

struct SwarmParams {
  // Stationary seed population: Poisson(base + scale * popularity^expo).
  // The superlinear exponent concentrates seed scarcity on the very tail
  // (files requested ~once a week usually have no seed online at all),
  // which is what drives the popularity-failure coupling of Fig 10 and
  // the 42% unpopular failure of smart APs (§5.2).
  double seeds_per_popularity = 0.33;
  double seeds_popularity_exponent = 1.1;
  // Seeds present regardless of popularity (long-term altruists), as a
  // Poisson mean. Kept well below 1 so single-request files often have none.
  double base_seed_mean = 0.07;
  // Leechers online per unit of weekly popularity.
  double leechers_per_popularity = 0.22;
  // Mean seed/leecher session length.
  SimTime peer_lifetime = 4 * kHour;
  // Per-seed upload contribution (bytes/sec): lognormal median / sigma.
  // The wide sigma produces the paper's heavy speed tail: most swarms
  // crawl at tens of KBps (ADSL uplink asymmetry), a few reach line rate.
  Rate seed_upload_median = kbps_to_rate(19.0);
  double seed_upload_sigma = 1.25;
  // Download rate grows only logarithmically with the seed count: more
  // seeds mean more parallel slots, but uplink asymmetry keeps the
  // per-downloader rate in the tens-of-KBps range for most swarms. This
  // matches the paper's observation that pre-download *speed* is nearly
  // popularity-independent while *failure* is strongly coupled (Fig 8 vs
  // Fig 13 have nearly identical CDFs despite very different workloads).
  double seed_log_gain = 0.22;
  // Fraction of leecher exchange capacity usable by one more downloader
  // (tit-for-tat gives partial credit for other leechers' uploads).
  double leecher_exchange_factor = 0.35;
  // Well-provisioned seeds ("seedboxes"): hot swarms often contain a
  // datacenter-grade seed that serves each connection at near line rate.
  // P(seedbox present) = 1 - exp(-expected_seeds / seedbox_scale), so only
  // genuinely hot files get one — this is why the paper's top-10 popular
  // replays saturate the 20 Mbps line (Table 2) while the bulk of swarms
  // crawl (Fig 13).
  double seedbox_scale = 250.0;
  Rate seedbox_rate_lo = 1.2e6;
  Rate seedbox_rate_hi = 3.2e6;
  // Total traffic per file byte (tit-for-tat upload + protocol overhead):
  // sampled uniformly in [lo, hi]; the paper measures 196% on average.
  double traffic_factor_lo = 1.5;
  double traffic_factor_hi = 2.5;
  // eMule swarms are smaller and slower than BitTorrent (fewer, older
  // clients); scale factor applied to populations and per-seed rate.
  double emule_scale = 0.55;
};

class Swarm {
 public:
  // `weekly_popularity` is the file's request count per week, the same
  // popularity measure the paper buckets by in Fig 10.
  Swarm(Protocol protocol, double weekly_popularity, const SwarmParams& params,
        Rng& rng);

  // Advances both populations by `dt` with the exact M/M/∞ transition.
  void advance(SimTime dt, Rng& rng);

  // Time from now to the next seed arrival, Exp(λ_seeds); kTimeNever if
  // no seed can arrive. Meaningful for a seedless swarm, whose state
  // cannot change any rate before that arrival.
  SimTime next_seed_gap(Rng& rng) const;

  // The first seed arrives `dt` after the last advance of a seedless
  // swarm: the leechers advance over `dt`, and the seed count becomes 1.
  void seed_arrives(SimTime dt, Rng& rng);

  // Time from now to the next birth or death in either population,
  // Exp with rate (seeds + leechers + λL_seeds + λL_leechers) / L;
  // kTimeNever if nothing can ever change.
  SimTime next_change_gap(Rng& rng) const;

  // Applies that next change: a seed death, a leecher death, a seed
  // arrival or a leecher arrival, each picked in proportion to its rate.
  void change_once(Rng& rng);

  // Service rate available to ONE additional downloader right now.
  Rate downloader_rate() const;

  // The "bandwidth multiplier" D_i/S_i of §4.2: aggregate distribution
  // per unit of injected seed bandwidth, growing with the leecher
  // population that can re-share.
  double bandwidth_multiplier() const;

  std::uint32_t seeds() const { return seeds_; }
  std::uint32_t leechers() const { return leechers_; }
  double traffic_factor() const { return traffic_factor_; }
  Protocol protocol() const { return protocol_; }

  // Snapshot support: serializes the per-swarm sampled constants and the
  // dynamic populations. restored() rebuilds without consuming any RNG
  // draws (params come from the caller's SourceParams, sampled state from
  // the checkpoint).
  void save(snapshot::SnapshotWriter& w) const;
  static Swarm restored(Protocol protocol, const SwarmParams& params,
                        snapshot::SnapshotReader& r);

 private:
  // Restore path: sets only what the checkpoint does not carry.
  Swarm(Protocol protocol, const SwarmParams& params)
      : params_(params), protocol_(protocol) {}

  // P(a peer present now has left after dt) = 1 − e^{−dt/L}.
  double departure_prob(SimTime dt) const;
  // Exp time to the next event of a process running at rate weight / L;
  // kTimeNever if weight is 0.
  SimTime gap_at_rate(double weight, Rng& rng) const;
  // One population whose peers each left with probability `leave`:
  // Binomial survivors plus Poisson(stationary_mean · leave) arrivals.
  static std::uint32_t advance_population(std::uint32_t n,
                                          double stationary_mean,
                                          double leave, Rng& rng);

  SwarmParams params_;  // by value: swarms outlive caller-side param structs
  // Stationary mean populations λL, fixed by the file's popularity and
  // protocol: the means of the construction draw and of every arrival.
  double seed_mean_ = 0.0;
  double leecher_mean_ = 0.0;
  Rate per_seed_rate_ = 0.0;    // this swarm's average per-seed upload
  Rate seedbox_rate_ = 0.0;
  double traffic_factor_ = 2.0; // sampled once per swarm
  std::uint32_t seeds_ = 0;
  std::uint32_t leechers_ = 0;
  Protocol protocol_;
  bool has_seedbox_ = false;
};

}  // namespace odr::proto
