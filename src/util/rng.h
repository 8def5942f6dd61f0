// Deterministic random number generation for simulations.
//
// All stochastic model components draw from an odr::Rng seeded explicitly,
// so every experiment is reproducible from its seed. The generator is
// xoshiro256** (public domain, Blackman & Vigna), which is fast and has
// no observable bias for the distribution shapes used here.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace odr {

// Complete serializable state of an Rng: the four xoshiro256** words plus
// the stream id (the seed this stream was created from) and the number of
// draws taken so far. Restoring this state reproduces the exact subsequent
// draw sequence, which is what makes checkpoint/restore bit-identical.
struct RngState {
  std::array<std::uint64_t, 4> s{};
  std::uint64_t stream_id = 0;
  std::uint64_t draws = 0;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

  // Re-initializes the state from a 64-bit seed via SplitMix64, the
  // recommended seeding procedure for xoshiro. Resets the draw counter and
  // records the seed as this stream's id.
  void reseed(std::uint64_t seed);

  // Derives an independent child stream; used to give each model component
  // its own stream so adding draws in one component does not perturb others.
  // The child's stream id is the seed drawn from the parent.
  Rng fork();

  std::uint64_t next_u64();

  RngState state() const { return {state_, stream_id_, draws_}; }
  void set_state(const RngState& st) {
    state_ = st.s;
    stream_id_ = st.stream_id;
    draws_ = st.draws;
  }

  // Identifies which seed produced this stream (for snapshot diagnostics).
  std::uint64_t stream_id() const { return stream_id_; }
  // Number of next_u64() calls since the last reseed/set_state baseline.
  std::uint64_t draw_count() const { return draws_; }

  // Uniform in [0, 1).
  double uniform();
  // Uniform in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [0, n).
  std::uint64_t uniform_index(std::uint64_t n);

  bool bernoulli(double p) { return uniform() < p; }

  // Standard normal via Box-Muller (no cached spare: determinism over speed).
  double normal(double mean = 0.0, double stddev = 1.0);

  // Log-normal parameterized by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

  double exponential(double mean);

  // Pareto with scale xm > 0 and shape alpha > 0 (heavy upper tail).
  double pareto(double xm, double alpha);

  // Index drawn proportionally to non-negative weights. Empty or all-zero
  // weights return 0.
  std::size_t weighted_index(std::span<const double> weights);

  // Poisson(mean): sequential inversion below mean 10, Hörmann's PTRS
  // transformed rejection (1993) above. Both are exact, and both take a
  // bounded expected number of draws at any mean. A mean <= 0 draws
  // nothing and returns 0.
  std::uint64_t poisson(double mean);

  // Binomial(n, p): inversion while n·min(p, 1 − p) < 10, Hörmann's BTRD
  // transformed rejection (1993) above; exact, with a bounded expected
  // number of draws at any n. n = 0, p <= 0 and p >= 1 draw nothing.
  std::uint64_t binomial(std::uint64_t n, double p);

  // In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  std::uint64_t stream_id_ = 0;
  std::uint64_t draws_ = 0;
};

// Samples ranks from a Zipf distribution over {1..n} with exponent s,
// using precomputed cumulative weights (O(log n) per draw).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  // Returns a rank in [1, n].
  std::size_t sample(Rng& rng) const;

  std::size_t size() const { return cumulative_.size(); }
  // Probability mass of rank r (1-based).
  double pmf(std::size_t rank) const;

 private:
  std::vector<double> cumulative_;  // normalized cumulative weights
  double s_;
};

// Samples ranks whose popularity follows a stretched-exponential (SE) law
// y^c = -a*log10(x) + b, i.e. y = (b - a*log10(x))^(1/c); ranks are drawn
// proportionally to y(rank). This is the paper's better-fitting model for
// fetch-at-most-once P2P video workloads (Fig 7).
class StretchedExponentialSampler {
 public:
  StretchedExponentialSampler(std::size_t n, double a, double b, double c);

  std::size_t sample(Rng& rng) const;
  double weight(std::size_t rank) const;  // unnormalized popularity of rank
  std::size_t size() const { return cumulative_.size(); }

 private:
  std::vector<double> cumulative_;
  double a_, b_, c_;
};

}  // namespace odr
