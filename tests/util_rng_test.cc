#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

namespace odr {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(7);
  Rng child = parent.fork();
  // Advancing the child must not perturb the parent's future stream.
  Rng parent_copy(7);
  (void)parent_copy.fork();
  for (int i = 0; i < 20; ++i) (void)child.next_u64();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(parent.next_u64(), parent_copy.next_u64());
  }
}

TEST(RngTest, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 9.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(RngTest, UniformIndexCoversRangeUnbiased) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, 5 * std::sqrt(n / 10.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  const int n = 200000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(RngTest, ParetoBoundsAndHeavyTail) {
  Rng rng(23);
  const int n = 100000;
  int above10 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.pareto(1.0, 1.5);
    EXPECT_GE(x, 1.0);
    if (x > 10.0) ++above10;
  }
  // P(X > 10) = 10^-1.5 ~= 3.16%.
  EXPECT_NEAR(above10 / static_cast<double>(n), 0.0316, 0.005);
}

TEST(RngTest, PoissonMeanSmallAndLarge) {
  Rng rng(29);
  for (double mean : {0.3, 2.0, 10.0, 100.0}) {
    const int n = 50000;
    double sum = 0;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(sum / n, mean, std::max(0.05, mean * 0.03)) << "mean " << mean;
  }
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(31);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
  EXPECT_EQ(rng.draw_count(), 0u);  // a degenerate mean draws nothing
}

// Pearson's chi-square of `n` draws of `sample` against the exact `pmf`
// on {0..support_max}. Values are binned left to right so that each bin
// expects at least 20 draws; the last bin takes the upper tail. Fails
// above the 0.1% critical value.
template <typename Sample, typename Pmf>
void expect_matches_pmf(Sample sample, Pmf pmf, std::uint64_t support_max,
                        const std::string& what) {
  const int n = 200000;
  std::vector<std::uint64_t> upper;  // the largest value in each bin
  std::vector<double> expected;
  double binned = 0.0;
  double acc = 0.0;
  for (std::uint64_t k = 0; k <= support_max; ++k) {
    acc += n * pmf(k);
    if (acc >= 20.0 && n - binned - acc >= 20.0) {
      upper.push_back(k);
      expected.push_back(acc);
      binned += acc;
      acc = 0.0;
    }
  }
  upper.push_back(~0ull);
  expected.push_back(n - binned);
  std::vector<double> observed(expected.size(), 0.0);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t k = sample();
    observed[std::lower_bound(upper.begin(), upper.end(), k) -
             upper.begin()] += 1.0;
  }
  double chi2 = 0.0;
  for (std::size_t b = 0; b < expected.size(); ++b) {
    const double d = observed[b] - expected[b];
    chi2 += d * d / expected[b];
  }
  // Wilson–Hilferty: the 0.1% upper quantile of chi-square with df
  // degrees of freedom.
  const double df = static_cast<double>(expected.size() - 1);
  const double h = 2.0 / (9.0 * df);
  const double critical = df * std::pow(1.0 - h + 3.0902 * std::sqrt(h), 3);
  ASSERT_GE(df, 1.0) << what;
  EXPECT_LT(chi2, critical) << what << ": chi2 " << chi2 << " over " << df
                            << " df";
}

double binomial_pmf(std::uint64_t n, double p, std::uint64_t k) {
  if (k > n) return 0.0;
  const double nd = static_cast<double>(n);
  const double kd = static_cast<double>(k);
  return std::exp(std::lgamma(nd + 1) - std::lgamma(kd + 1) -
                  std::lgamma(nd - kd + 1) + kd * std::log(p) +
                  (nd - kd) * std::log1p(-p));
}

double poisson_pmf(double mean, std::uint64_t k) {
  const double kd = static_cast<double>(k);
  return std::exp(-mean + kd * std::log(mean) - std::lgamma(kd + 1));
}

TEST(RngTest, BinomialMatchesExactPmf) {
  // n·min(p, 1 − p) below 10 takes inversion, above it BTRD; p > 1/2 goes
  // through the symmetry n − Binomial(n, 1 − p). 1000 × 0.3 reaches
  // BTRD's far-tail log-density test (|k − mode| > 15).
  struct Case {
    std::uint64_t n;
    double p;
  };
  Rng rng(59);
  for (const Case c : {Case{50, 0.1}, Case{12, 0.5}, Case{40, 0.9},
                       Case{200, 0.1}, Case{100, 0.8}, Case{1000, 0.3},
                       Case{100000, 0.02}}) {
    const std::string what =
        "Binomial(" + std::to_string(c.n) + ", " + std::to_string(c.p) + ")";
    expect_matches_pmf([&] { return rng.binomial(c.n, c.p); },
                       [&](std::uint64_t k) { return binomial_pmf(c.n, c.p, k); },
                       c.n, what);
  }
}

TEST(RngTest, PoissonMatchesExactPmf) {
  // Inversion below mean 10, PTRS from 10 up.
  Rng rng(61);
  for (double mean : {0.05, 3.0, 9.5, 10.0, 10.5, 40.0, 500.0}) {
    const std::string what = "Poisson(" + std::to_string(mean) + ")";
    expect_matches_pmf([&] { return rng.poisson(mean); },
                       [&](std::uint64_t k) { return poisson_pmf(mean, k); },
                       static_cast<std::uint64_t>(mean * 4 + 50), what);
  }
}

TEST(RngTest, BinomialEdges) {
  Rng rng(67);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.binomial(100, -0.5), 0u);
  EXPECT_EQ(rng.binomial(100, 1.0), 100u);
  EXPECT_EQ(rng.binomial(100, 1.5), 100u);
  EXPECT_EQ(rng.draw_count(), 0u);  // degenerate cases draw nothing
  // A huge n stays in range and near its mean.
  const std::uint64_t n = 1ull << 40;
  const std::uint64_t k = rng.binomial(n, 0.25);
  EXPECT_LE(k, n);
  EXPECT_NEAR(static_cast<double>(k), 0.25 * static_cast<double>(n),
              6.0 * std::sqrt(0.1875 * static_cast<double>(n)));
}

TEST(RngTest, PoissonHugeMeanDoesNotOverflow) {
  Rng rng(71);
  const double mean = 1e6;
  const int n = 2000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double k = static_cast<double>(rng.poisson(mean));
    sum += k;
    sum_sq += k * k;
  }
  const double m = sum / n;
  EXPECT_NEAR(m, mean, 5.0 * std::sqrt(mean / n));
  EXPECT_NEAR((sum_sq / n - m * m) / mean, 1.0, 0.15);  // variance = mean
}

TEST(RngTest, WeightedIndexProportional) {
  Rng rng(37);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, WeightedIndexDegenerateCases) {
  Rng rng(41);
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_EQ(rng.weighted_index(zeros), 0u);
  const std::vector<double> single = {5.0};
  EXPECT_EQ(rng.weighted_index(single), 0u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(43);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(ZipfSamplerTest, PmfSumsToOneAndDecreases) {
  ZipfSampler zipf(1000, 1.0);
  double total = 0.0;
  double prev = 1.0;
  for (std::size_t r = 1; r <= 1000; ++r) {
    const double p = zipf.pmf(r);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, SampleMatchesPmf) {
  Rng rng(47);
  ZipfSampler zipf(100, 1.2);
  std::vector<int> counts(101, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  EXPECT_NEAR(counts[1] / static_cast<double>(n), zipf.pmf(1), 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), zipf.pmf(2), 0.01);
  EXPECT_GT(counts[1], counts[10]);
}

TEST(StretchedExponentialSamplerTest, HeadHeavierThanTail) {
  Rng rng(53);
  StretchedExponentialSampler se(1000, 0.010, 1.134, 0.01);
  EXPECT_GT(se.weight(1), se.weight(1000));
  int head = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (se.sample(rng) <= 10) ++head;
  }
  // Top 1% of ranks must receive far more than 1% of draws.
  EXPECT_GT(head / static_cast<double>(n), 0.05);
}

}  // namespace
}  // namespace odr
