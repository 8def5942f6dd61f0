#include "workload/popularity.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace odr::workload {
namespace {

// The normalized log-rank coordinate clamp(log(r/r0)/span, 0, 1) of each
// rank r in [r0, r1]. It depends on the segment only, so each bisection
// computes it once instead of once per round.
std::vector<double> log_rank_coords(std::size_t r0, std::size_t r1) {
  assert(r1 >= r0 && r0 >= 1);
  const double span = std::log(static_cast<double>(r1) / static_cast<double>(r0));
  std::vector<double> x(r1 - r0 + 1);
  for (std::size_t r = r0; r <= r1; ++r) {
    const double v =
        span <= 0.0
            ? 0.0
            : std::log(static_cast<double>(r) / static_cast<double>(r0)) / span;
    x[r - r0] = std::clamp(v, 0.0, 1.0);
  }
  return x;
}

// Applies curvature gamma to the coordinates (gamma = 1 -> pure power law):
// the per-rank exponents of a log-log interpolation.
void curve(const std::vector<double>& x, double gamma,
           std::vector<double>& exponents) {
  exponents.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    exponents[i] = std::pow(x[i], gamma);
  }
}

// Fills counts_[r0-1 ..] with the log-log interpolation c0 * (c1/c0)^e from
// c0 (at rank r0) to c1 (at the segment's last rank).
void fill_segment(std::vector<double>& counts, std::size_t r0,
                  const std::vector<double>& exponents, double c0, double c1) {
  const double ratio = c1 / c0;
  for (std::size_t i = 0; i < exponents.size(); ++i) {
    counts[r0 - 1 + i] = c0 * std::pow(ratio, exponents[i]);
  }
}

// The mass fill_segment would write, summed in rank order.
double segment_mass(const std::vector<double>& exponents, double c0,
                    double c1) {
  const double ratio = c1 / c0;
  double m = 0.0;
  for (const double e : exponents) m += c0 * std::pow(ratio, e);
  return m;
}

}  // namespace

PopularityProfile::PopularityProfile(std::size_t num_files,
                                     double total_requests,
                                     const PopularityProfileParams& params) {
  assert(num_files > 0);
  counts_.assign(num_files, 0.0);

  const auto r_head = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             params.head_file_share * static_cast<double>(num_files))));
  const auto r_mid = std::min(
      num_files,
      std::max<std::size_t>(
          r_head + 1,
          static_cast<std::size_t>(std::llround(
              (params.head_file_share + params.mid_file_share) *
              static_cast<double>(num_files)))));

  // Head segment: solve the top count so the head carries its mass; if the
  // required top count would exceed the per-file share cap, pin it there
  // and put the remaining mass into curvature instead.
  std::vector<double> exponents;
  {
    const double target = params.head_request_share * total_requests;
    // Feasibility floor: at very small scales the head's mass target needs
    // an average of target/r_head per file, so the cap cannot sit below
    // that (1.6x leaves room for a decaying shape).
    const double top_cap =
        std::max({params.head_boundary_count * 1.05,
                  params.max_top_share * total_requests,
                  1.6 * target / static_cast<double>(r_head)});
    const std::vector<double> x = log_rank_coords(1, r_head);
    curve(x, 1.0, exponents);
    double lo = params.head_boundary_count, hi = 1e9;
    for (int it = 0; it < 60; ++it) {
      const double mid = std::sqrt(lo * hi);  // geometric: counts span decades
      (segment_mass(exponents, mid, params.head_boundary_count) < target
           ? lo
           : hi) = mid;
    }
    const double c_max = std::sqrt(lo * hi);
    if (c_max <= top_cap) {
      fill_segment(counts_, 1, exponents, c_max, params.head_boundary_count);
    } else {
      double glo = 0.1, ghi = 10.0;  // mass increases with gamma
      for (int it = 0; it < 60; ++it) {
        const double mid = 0.5 * (glo + ghi);
        curve(x, mid, exponents);
        (segment_mass(exponents, top_cap, params.head_boundary_count) < target
             ? glo
             : ghi) = mid;
      }
      curve(x, 0.5 * (glo + ghi), exponents);
      fill_segment(counts_, 1, exponents, top_cap, params.head_boundary_count);
    }
  }

  // Middle segment: boundaries pinned at 84 and 7; curvature carries mass.
  if (r_mid > r_head) {
    const double target = params.mid_request_share * total_requests;
    const std::vector<double> x = log_rank_coords(r_head + 1, r_mid);
    double lo = 0.15, hi = 8.0;  // gamma; mass increases with gamma
    for (int it = 0; it < 60; ++it) {
      const double mid = 0.5 * (lo + hi);
      curve(x, mid, exponents);
      (segment_mass(exponents, params.head_boundary_count,
                    params.mid_boundary_count) < target
           ? lo
           : hi) = mid;
    }
    curve(x, 0.5 * (lo + hi), exponents);
    fill_segment(counts_, r_head + 1, exponents, params.head_boundary_count,
                 params.mid_boundary_count);
  }

  // Tail segment: solve the minimum count so the tail carries its mass.
  if (num_files > r_mid) {
    const double target =
        (1.0 - params.head_request_share - params.mid_request_share) *
        total_requests;
    curve(log_rank_coords(r_mid + 1, num_files), 1.0, exponents);
    double lo = 1e-4, hi = params.mid_boundary_count;
    for (int it = 0; it < 60; ++it) {
      const double mid = std::sqrt(lo * hi);
      (segment_mass(exponents, params.mid_boundary_count, mid) < target
           ? lo
           : hi) = mid;
    }
    fill_segment(counts_, r_mid + 1, exponents, params.mid_boundary_count,
                 std::sqrt(lo * hi));
  }
}

}  // namespace odr::workload
