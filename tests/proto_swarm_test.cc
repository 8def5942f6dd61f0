#include "proto/swarm.h"

#include <gtest/gtest.h>

#include "proto/source.h"

namespace odr::proto {
namespace {

SwarmParams default_params() { return SwarmParams{}; }

TEST(SwarmTest, PopularSwarmsHaveMoreSeeds) {
  Rng rng(1);
  double tail_seeds = 0, head_seeds = 0;
  const int trials = 300;
  for (int i = 0; i < trials; ++i) {
    Swarm tail(Protocol::kBitTorrent, 1.0, default_params(), rng);
    Swarm head(Protocol::kBitTorrent, 200.0, default_params(), rng);
    tail_seeds += tail.seeds();
    head_seeds += head.seeds();
  }
  EXPECT_LT(tail_seeds / trials, 1.0);
  EXPECT_GT(head_seeds / trials, 20.0);
}

TEST(SwarmTest, TailSwarmsOftenSeedless) {
  Rng rng(2);
  int seedless = 0;
  const int trials = 1000;
  for (int i = 0; i < trials; ++i) {
    Swarm s(Protocol::kBitTorrent, 1.0, default_params(), rng);
    if (s.seeds() == 0) ++seedless;
  }
  // Single-request-per-week files usually have no seed online (the
  // mechanism behind Bottleneck 3).
  EXPECT_GT(seedless, trials / 2);
}

TEST(SwarmTest, SeedlessSwarmServesNothing) {
  Rng rng(3);
  SwarmParams p = default_params();
  p.base_seed_mean = 0.0;
  p.seeds_per_popularity = 0.0;
  p.leechers_per_popularity = 50.0;
  Swarm s(Protocol::kBitTorrent, 1.0, p, rng);
  EXPECT_EQ(s.seeds(), 0u);
  EXPECT_DOUBLE_EQ(s.downloader_rate(), 0.0);
}

TEST(SwarmTest, RateGrowsSublinearlyWithSeeds) {
  Rng rng(4);
  SwarmParams p = default_params();
  p.seed_upload_sigma = 0.0;  // deterministic per-seed rate
  p.seedbox_scale = 1e12;     // isolate the consumer-swarm component
  Swarm small(Protocol::kBitTorrent, 8.0, p, rng);
  Swarm large(Protocol::kBitTorrent, 800.0, p, rng);
  if (small.seeds() > 0 && large.seeds() > 50 * small.seeds()) {
    // Log growth: 50x the seeds must give far less than 50x the rate.
    EXPECT_LT(large.downloader_rate(), 10.0 * small.downloader_rate());
    EXPECT_GT(large.downloader_rate(), small.downloader_rate());
  }
}

TEST(SwarmTest, TickPreservesStationaryMean) {
  Rng rng(6);
  const double pop = 50.0;
  Swarm s(Protocol::kBitTorrent, pop, default_params(), rng);
  double total = 0;
  const int steps = 2000;
  for (int i = 0; i < steps; ++i) {
    s.tick(5 * kMinute, rng);
    total += s.seeds();
  }
  const double expected =
      default_params().base_seed_mean +
      default_params().seeds_per_popularity *
          std::pow(pop, default_params().seeds_popularity_exponent);
  EXPECT_NEAR(total / steps, expected, expected * 0.25);
}

TEST(SwarmTest, ChurnFlipsSeedlessState) {
  Rng rng(7);
  Swarm s(Protocol::kBitTorrent, 2.0, default_params(), rng);
  int transitions = 0;
  bool last = s.seeds() == 0;
  for (int i = 0; i < 5000; ++i) {
    s.tick(5 * kMinute, rng);
    const bool now = s.seeds() == 0;
    if (now != last) ++transitions;
    last = now;
  }
  // Tail swarms must oscillate between starved and alive, not freeze.
  EXPECT_GT(transitions, 10);
}

TEST(SwarmTest, EmuleSwarmsSmallerThanBitTorrent) {
  Rng rng(8);
  double bt = 0, em = 0;
  for (int i = 0; i < 500; ++i) {
    bt += Swarm(Protocol::kBitTorrent, 50.0, default_params(), rng).seeds();
    em += Swarm(Protocol::kEmule, 50.0, default_params(), rng).seeds();
  }
  EXPECT_LT(em, bt * 0.8);
}

TEST(SwarmTest, TrafficFactorInConfiguredRange) {
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    Swarm s(Protocol::kBitTorrent, 10.0, default_params(), rng);
    EXPECT_GE(s.traffic_factor(), default_params().traffic_factor_lo);
    EXPECT_LE(s.traffic_factor(), default_params().traffic_factor_hi);
  }
}

TEST(SwarmTest, SeedboxesAppearOnlyInHotSwarms) {
  Rng rng(11);
  SwarmParams p = default_params();
  p.seed_upload_sigma = 0.0;
  int tail_fast = 0, hot_fast = 0;
  const int trials = 400;
  for (int i = 0; i < trials; ++i) {
    Swarm tail(Protocol::kBitTorrent, 2.0, p, rng);
    Swarm hot(Protocol::kBitTorrent, 5000.0, p, rng);
    if (tail.downloader_rate() > p.seedbox_rate_lo * 0.9) ++tail_fast;
    if (hot.downloader_rate() > p.seedbox_rate_lo * 0.9) ++hot_fast;
  }
  // Hot swarms nearly always carry a line-rate path; tail swarms almost
  // never do (Table 2 vs Fig 13).
  EXPECT_LT(tail_fast, trials / 20);
  EXPECT_GT(hot_fast, trials * 9 / 10);
}

TEST(SwarmTest, BandwidthMultiplierGrowsWithLeechers) {
  Rng rng(10);
  SwarmParams p = default_params();
  Swarm small(Protocol::kBitTorrent, 1.0, p, rng);
  Swarm large(Protocol::kBitTorrent, 2000.0, p, rng);
  EXPECT_GE(small.bandwidth_multiplier(), 1.0);
  EXPECT_GT(large.bandwidth_multiplier(), small.bandwidth_multiplier());
}

}  // namespace
}  // namespace odr::proto
