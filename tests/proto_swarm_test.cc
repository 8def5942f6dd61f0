#include "proto/swarm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

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

double stationary_seeds(double pop) {
  const SwarmParams p = default_params();
  return p.base_seed_mean +
         p.seeds_per_popularity * std::pow(pop, p.seeds_popularity_exponent);
}

struct Moments {
  double mean = 0.0;
  double variance = 0.0;
};

template <typename Draw>
Moments moments(int n, Draw draw) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = draw();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  return {mean, sum_sq / n - mean * mean};
}

TEST(SwarmTest, AdvancePreservesStationaryMeanAndVariance) {
  // A swarm drawn from its stationary Poisson(λL) stays Poisson(λL) after
  // an exact advance over any interval, short or far beyond the lifetime.
  const double pop = 20.0;
  const double mean = stationary_seeds(pop);
  const int n = 20000;
  Rng rng(6);
  for (SimTime dt : {kMinute, 5 * kMinute, kHour, kWeek}) {
    const Moments m = moments(n, [&] {
      Swarm s(Protocol::kBitTorrent, pop, default_params(), rng);
      s.advance(dt, rng);
      return static_cast<double>(s.seeds());
    });
    EXPECT_NEAR(m.mean, mean, 5.0 * std::sqrt(mean / n)) << "dt " << dt;
    EXPECT_NEAR(m.variance / mean, 1.0, 0.05) << "dt " << dt;
  }
}

TEST(SwarmTest, TwoHalfAdvancesMatchOneWholeAdvance) {
  // From a fixed state far above the stationary mean, one advance of dt
  // and two of dt/2 both give n0·q + Binomial survivors' variance
  // n0·q(1 − q) plus Poisson(m(1 − q)) arrivals, q = e^{−dt/L}.
  const double pop = 20.0;
  const double m = stationary_seeds(pop);
  Rng rng(12);
  std::optional<Swarm> start;
  while (!start || start->seeds() < 2 * m) {
    start.emplace(Protocol::kBitTorrent, pop, default_params(), rng);
  }
  const double n0 = start->seeds();
  const int n = 20000;
  for (SimTime dt : {5 * kMinute, kHour, 8 * kHour}) {
    const double q = std::exp(-static_cast<double>(dt) /
                              static_cast<double>(default_params().peer_lifetime));
    const double mean = n0 * q + m * (1.0 - q);
    const double variance = n0 * q * (1.0 - q) + m * (1.0 - q);
    const Moments whole = moments(n, [&] {
      Swarm s = *start;
      s.advance(dt, rng);
      return static_cast<double>(s.seeds());
    });
    const Moments halves = moments(n, [&] {
      Swarm s = *start;
      s.advance(dt / 2, rng);
      s.advance(dt / 2, rng);
      return static_cast<double>(s.seeds());
    });
    for (const Moments& got : {whole, halves}) {
      EXPECT_NEAR(got.mean, mean, 5.0 * std::sqrt(variance / n)) << "dt " << dt;
      EXPECT_NEAR(got.variance / variance, 1.0, 0.06) << "dt " << dt;
    }
  }
}

TEST(SwarmTest, SampleAlignedWakesMatchPerPeriodAdvances) {
  // A seeded SwarmSource skips the samples before its next birth or death
  // and then applies that one change plus the exact transition over the
  // rest of the interval. From one fixed (seeds, leechers) state, the
  // populations and the rate it shows at each of the next 12 samples
  // must have the law of an advance at every sample: both match the
  // M/M/∞ moments n0·q + m(1 − q) and n0·q(1 − q) + m(1 − q), q =
  // e^{−kP/L}, and their mean rates agree. The wake skips the first
  // sample exactly when nothing changed in it, with probability e^{−rP}.
  constexpr SimTime kPeriod = SwarmSource::kTickPeriod;
  constexpr int kSamples = 12;
  const double pop = 20.0;
  const SwarmParams params = default_params();
  const double seed_mean = stationary_seeds(pop);
  const double leecher_mean = params.leechers_per_popularity * pop;
  Rng rng(31);
  std::optional<SwarmSource> start;
  // Enough seeds that no trial goes seedless within the hour (a seedless
  // swarm's leechers wait for its seed arrival to advance).
  while (!start || start->swarm().seeds() < 6) {
    start.emplace(Protocol::kBitTorrent, pop, params, rng);
  }
  const double s0 = start->swarm().seeds();
  const double l0 = start->swarm().leechers();
  const double lifetime = static_cast<double>(params.peer_lifetime);

  struct Sums {
    double seeds = 0, seeds_sq = 0, leechers = 0, leechers_sq = 0;
    double rate = 0, rate_sq = 0;
    void add(const Swarm& s) {
      const double a = s.seeds(), b = s.leechers(), r = s.downloader_rate();
      seeds += a;
      seeds_sq += a * a;
      leechers += b;
      leechers_sq += b * b;
      rate += r;
      rate_sq += r * r;
    }
  };
  std::vector<Sums> per_period(kSamples + 1), aligned(kSamples + 1);
  const int n = 100000;
  int first_sample_skipped = 0;
  for (int trial = 0; trial < n; ++trial) {
    Swarm every = start->swarm();
    for (int k = 1; k <= kSamples; ++k) {
      every.advance(kPeriod, rng);
      per_period[k].add(every);
    }

    SwarmSource source = *start;
    SimTime last = 0;
    SimTime wake = source.next_change(rng);
    ASSERT_EQ(wake % kPeriod, 0);
    if (wake > kPeriod) ++first_sample_skipped;
    for (int k = 1; k <= kSamples; ++k) {
      while (last + wake <= k * kPeriod) {
        ASSERT_GT(source.swarm().seeds(), 0u);
        source.advance(wake, rng);
        last += wake;
        wake = source.next_change(rng);
      }
      aligned[k].add(source.swarm());
    }
  }

  auto check = [&](const char* what, double sum, double sum_sq, double x0,
                   double m, double q, int k) {
    const double mean = x0 * q + m * (1.0 - q);
    const double variance = x0 * q * (1.0 - q) + m * (1.0 - q);
    const double got_mean = sum / n;
    const double got_var = sum_sq / n - got_mean * got_mean;
    EXPECT_NEAR(got_mean, mean, 5.0 * std::sqrt(variance / n))
        << what << " after " << k << " periods";
    EXPECT_NEAR(got_var / variance, 1.0, 0.04)
        << what << " after " << k << " periods";
  };
  for (int k = 1; k <= kSamples; ++k) {
    const double q = std::exp(-static_cast<double>(k * kPeriod) / lifetime);
    for (const Sums* sums : {&per_period[k], &aligned[k]}) {
      const char* rule = sums == &aligned[k] ? "aligned" : "per-period";
      SCOPED_TRACE(rule);
      check("seeds", sums->seeds, sums->seeds_sq, s0, seed_mean, q, k);
      check("leechers", sums->leechers, sums->leechers_sq, l0, leecher_mean,
            q, k);
    }
    const Sums& a = per_period[k];
    const Sums& b = aligned[k];
    const double var_a = a.rate_sq / n - (a.rate / n) * (a.rate / n);
    const double var_b = b.rate_sq / n - (b.rate / n) * (b.rate / n);
    EXPECT_NEAR(b.rate / n, a.rate / n, 5.0 * std::sqrt((var_a + var_b) / n))
        << "mean rate after " << k << " periods";
  }

  const double r =
      (s0 + l0 + seed_mean + leecher_mean) / lifetime;  // per SimTime unit
  const double p_still = std::exp(-r * static_cast<double>(kPeriod));
  EXPECT_NEAR(static_cast<double>(first_sample_skipped) / n, p_still,
              5.0 * std::sqrt(p_still * (1.0 - p_still) / n));
}

TEST(SwarmTest, SeedlessSwarmWaitsForExponentialSeedArrival) {
  // Seeds arrive at rate λ = λL / L, so a seedless swarm's wait is
  // Exp(L / λL); the arrival leaves exactly one seed.
  const double pop = 2.0;
  const double m = stationary_seeds(pop);
  const SimTime lifetime = default_params().peer_lifetime;
  Rng rng(13);
  Swarm s(Protocol::kBitTorrent, pop, default_params(), rng);
  while (s.seeds() > 0) s = Swarm(Protocol::kBitTorrent, pop, default_params(), rng);
  const int n = 20000;
  const Moments gap = moments(n, [&] {
    return to_seconds(s.next_seed_gap(rng));
  });
  const double expected = to_seconds(lifetime) / m;
  EXPECT_NEAR(gap.mean, expected, 5.0 * expected / std::sqrt(n));
  EXPECT_NEAR(std::sqrt(gap.variance) / expected, 1.0, 0.05);  // sd = mean

  s.seed_arrives(kHour, rng);
  EXPECT_EQ(s.seeds(), 1u);
  EXPECT_GT(s.downloader_rate(), 0.0);

  SwarmParams never = default_params();
  never.base_seed_mean = 0.0;
  never.seeds_per_popularity = 0.0;
  const Swarm barren(Protocol::kBitTorrent, pop, never, rng);
  EXPECT_EQ(barren.next_seed_gap(rng), kTimeNever);
}

TEST(SwarmTest, ChurnFlipsSeedlessState) {
  Rng rng(7);
  Swarm s(Protocol::kBitTorrent, 2.0, default_params(), rng);
  int transitions = 0;
  bool last = s.seeds() == 0;
  for (int i = 0; i < 5000; ++i) {
    s.advance(5 * kMinute, rng);
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
