#include "util/rng.h"

#include <algorithm>
#include <cassert>

namespace odr {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
  stream_id_ = seed;
  draws_ = 0;
}

Rng Rng::fork() { return Rng(next_u64()); }

std::uint64_t Rng::next_u64() {
  ++draws_;
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  if (n == 0) return 0;
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = ~0ull - (~0ull % n);
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % n;
}

double Rng::normal(double mean, double stddev) {
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return mean + stddev * z;
}

double Rng::exponential(double mean) {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::pareto(double xm, double alpha) {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) total += std::max(0.0, w);
  if (total <= 0.0) return 0;
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= std::max(0.0, weights[i]);
    if (target <= 0.0) return i;
  }
  return weights.size() - 1;
}

namespace {

// Hörmann's rejection samplers evaluate log k! as Stirling's formula plus
// its remainder fc(k) = ln k! − [(k + ½)·ln(k + 1) − (k + 1) + ½·ln 2π]:
// tabulated below 10, the asymptotic series above (error < 4e-11 at 10).
double stirling_remainder(double k) {
  static constexpr double kTable[10] = {
      0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
      0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
      0.01189670994589177, 0.01041126526197209, 0.009255462182712733,
      0.008330563433362871};
  if (k < 10.0) return kTable[static_cast<int>(k)];
  const double r = 1.0 / (k + 1.0);
  const double r2 = r * r;
  return (1.0 / 12.0 - (1.0 / 360.0 - r2 / 1260.0) * r2) * r;
}

double log_factorial(double k) {
  constexpr double kHalfLog2Pi = 0.9189385332046727;
  return stirling_remainder(k) + (k + 0.5) * std::log(k + 1.0) - (k + 1.0) +
         kHalfLog2Pi;
}

// Sequential-search inversion stops once the remaining mass is below what
// a 53-bit uniform can resolve; the truncated tail is < 2^-60.
constexpr double kNegligibleMass = 0x1.0p-60;

// Below this mean (Poisson) or n·p (binomial) inversion is cheaper than
// transformed rejection, whose set-up costs a few logarithms.
constexpr double kInversionLimit = 10.0;

}  // namespace

std::uint64_t Rng::poisson(double mean) {
  if (!(mean > 0.0)) return 0;
  if (mean < kInversionLimit) {
    double pk = std::exp(-mean);  // P(X = k), from k = 0
    double u = uniform();
    std::uint64_t k = 0;
    while (u > pk) {
      u -= pk;
      ++k;
      pk *= mean / static_cast<double>(k);
      if (pk < kNegligibleMass && static_cast<double>(k) > mean) break;
    }
    return k;
  }
  // PTRS (Hörmann 1993, "The transformed rejection method for generating
  // Poisson random variables"), constants as published.
  const double log_mean = std::log(mean);
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    const double u = uniform() - 0.5;
    const double v = uniform();
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(k);
    if (k < 0.0 || (us < 0.013 && v > us)) continue;
    if (std::log(v) + std::log(inv_alpha) - std::log(a / (us * us) + b) <=
        -mean + k * log_mean - log_factorial(k)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  if (n == 0 || !(p > 0.0)) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - binomial(n, 1.0 - p);
  const double nd = static_cast<double>(n);
  const double r = p / (1.0 - p);
  if (nd * p < kInversionLimit) {
    // Sequential search from P(X = 0) = (1 − p)^n, stepping with
    // P(k) = P(k − 1)·((n + 1)·r / k − r).
    const double nr = (nd + 1.0) * r;
    double pk = std::exp(nd * std::log1p(-p));
    double u = uniform();
    std::uint64_t k = 0;
    while (u > pk && k < n) {
      u -= pk;
      ++k;
      pk *= nr / static_cast<double>(k) - r;
      if (pk < kNegligibleMass && static_cast<double>(k) > nd * p) break;
    }
    return k;
  }
  // BTRD (Hörmann 1993, "The generation of binomial random variates"),
  // constants and steps as published; m is the mode.
  const double m = std::floor((nd + 1.0) * p);
  const double nr = (nd + 1.0) * r;
  const double npq = nd * p * (1.0 - p);
  const double sqrt_npq = std::sqrt(npq);
  const double b = 1.15 + 2.53 * sqrt_npq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double alpha = (2.83 + 5.1 / b) * sqrt_npq;
  const double v_r = 0.92 - 4.2 / b;
  const double u_rv_r = 0.86 * v_r;
  for (;;) {
    double v = uniform();
    double u;
    if (v <= u_rv_r) {
      // Step 1: the table-free centre, accepted without a density test.
      u = v / v_r - 0.43;
      return static_cast<std::uint64_t>(
          std::floor((2.0 * a / (0.5 - std::abs(u)) + b) * u + c));
    }
    if (v >= v_r) {
      u = uniform() - 0.5;
    } else {
      u = v / v_r - 0.93;
      u = (u < 0.0 ? -0.5 : 0.5) - u;
      v = uniform() * v_r;
    }
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a / us + b) * u + c);
    if (k < 0.0 || k > nd) continue;
    v = v * alpha / (a / (us * us) + b);
    const double km = std::abs(k - m);
    if (km <= 15.0) {
      // Step 3: f(k)/f(m) by the recursion, for k near the mode.
      double f = 1.0;
      if (m < k) {
        for (double i = m + 1.0; i <= k; i += 1.0) f *= nr / i - r;
      } else {
        for (double i = k + 1.0; i <= m; i += 1.0) v *= nr / i - r;
      }
      if (v <= f) return static_cast<std::uint64_t>(k);
      continue;
    }
    // Step 4: squeeze on log v, then the exact log-density ratio.
    v = std::log(v);
    const double rho =
        (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / npq + 0.5);
    const double t = -km * km / (2.0 * npq);
    if (v < t - rho) return static_cast<std::uint64_t>(k);
    if (v > t + rho) continue;
    const double nm = nd - m + 1.0;
    const double h = (m + 0.5) * std::log((m + 1.0) / (r * nm)) +
                     stirling_remainder(m) + stirling_remainder(nd - m);
    const double nk = nd - k + 1.0;
    if (v <= h + (nd + 1.0) * std::log(nm / nk) +
                 (k + 0.5) * std::log(nk * r / (k + 1.0)) -
                 stirling_remainder(k) - stirling_remainder(nd - k)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : s_(s) {
  assert(n > 0);
  cumulative_.resize(n);
  double acc = 0.0;
  for (std::size_t r = 1; r <= n; ++r) {
    acc += std::pow(static_cast<double>(r), -s);
    cumulative_[r - 1] = acc;
  }
  for (auto& c : cumulative_) c /= acc;
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  return static_cast<std::size_t>(it - cumulative_.begin()) + 1;
}

double ZipfSampler::pmf(std::size_t rank) const {
  if (rank == 0 || rank > cumulative_.size()) return 0.0;
  const double lo = rank == 1 ? 0.0 : cumulative_[rank - 2];
  return cumulative_[rank - 1] - lo;
}

StretchedExponentialSampler::StretchedExponentialSampler(std::size_t n, double a,
                                                         double b, double c)
    : a_(a), b_(b), c_(c) {
  assert(n > 0);
  cumulative_.resize(n);
  double acc = 0.0;
  for (std::size_t r = 1; r <= n; ++r) {
    acc += weight(r);
    cumulative_[r - 1] = acc;
  }
  for (auto& v : cumulative_) v /= acc;
}

double StretchedExponentialSampler::weight(std::size_t rank) const {
  const double yc = b_ - a_ * std::log10(static_cast<double>(rank));
  if (yc <= 0.0) return 0.0;
  return std::pow(yc, 1.0 / c_);
}

std::size_t StretchedExponentialSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  return static_cast<std::size_t>(it - cumulative_.begin()) + 1;
}

}  // namespace odr
