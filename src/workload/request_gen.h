// Request-trace generation: who asks for what, when.
//
// Arrival times follow a diurnal intensity (evening peak) with a mild
// day-over-day growth factor so that load peaks on the 7th day — the day
// Xuanfeng's purchased upload bandwidth was exceeded (Fig 11). File choice
// follows the catalog's SE popularity law with a fetch-at-most-once
// constraint per user (§3's explanation for why SE beats Zipf); user
// choice follows the heavy-tailed activity weights of the population.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/flat_map.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/trace.h"
#include "workload/user_model.h"

namespace odr::workload {

struct RequestGenParams {
  std::size_t num_requests = 204000;
  SimTime duration = kWeek;
  // Diurnal shape: intensity(t) = 1 + amplitude * sin(...), peaking at
  // `peak_hour` local time.
  double diurnal_amplitude = 0.50;
  double peak_hour = 21.0;
  // Relative load growth per day (day 7 carries the weekly peak).
  double daily_growth = 0.05;
};

// Fetch-at-most-once: the (user, file) pairs already requested.
using FetchedPairs = util::FlatMap64<bool>;

// Records that `user` requested `file`; false when it already had. The key
// is (user << 32 | file) + 1, since FlatMap64 reserves key 0 and
// (user 0, file 0) would be it.
inline bool first_fetch(FetchedPairs& seen, UserId user, FileIndex file) {
  return seen.insert(((static_cast<std::uint64_t>(user) << 32) | file) + 1,
                     true);
}

class RequestGenerator {
 public:
  // Throws std::invalid_argument naming the field when diurnal_amplitude is
  // outside [0, 1], daily_growth is negative or not finite, duration is not
  // positive, or peak_hour is outside [0, 24): the ranges the intensity's
  // bounds (ArrivalSqueeze) and the arrival sort key assume.
  explicit RequestGenerator(const RequestGenParams& params = {});

  // Generates the workload trace, sorted by request time.
  std::vector<WorkloadRecord> generate(const Catalog& catalog,
                                       const UserPopulation& users,
                                       Rng& rng) const;

  // Relative arrival intensity at time t (max value <= 1; used for
  // rejection sampling and exposed for tests).
  double relative_intensity(SimTime t) const;

  // Single-arrival sampling hook shared with the open-loop serving path
  // (serve::TrafficGen): draws a (user, file) pair for an arrival at time
  // `t`, honoring the same fetch-at-most-once dedup set generate() uses,
  // and fills `out` with it. Draw order is exactly two Rng draws per
  // attempt (user, then file), at most 16 attempts.
  // Returns false when every attempt collided (out is left untouched).
  static bool sample_arrival(const Catalog& catalog,
                             const UserPopulation& users, Rng& rng, SimTime t,
                             TaskId task_id,
                             FetchedPairs& seen, WorkloadRecord& out);

  const RequestGenParams& params() const { return params_; }

 private:
  friend class ArrivalSqueeze;

  RequestGenParams params_;
  // The intensity's peak over the whole duration: relative_intensity's
  // divisor.
  double max_value_ = 1.0;
};

// The arrival-time acceptance test of RequestGenerator::generate,
// exactly u <= relative_intensity(t), decided without the intensity
// wherever a table of bounds settles it.
//
// The diurnal factor depends only on the time of day, so the day splits
// into kBinsPerDay bins of kBinWidth microseconds, each with a lower and an
// upper bound on the factor; a day's growth scales both. A u below the
// scaled lower bound is accepted, one above the upper bound rejected, and
// only a u in the thin band between calls relative_intensity. The bounds
// are the factor's true extremes over the bin widened by kMargin, which
// dwarfs the intensity's rounding error (DESIGN.md, "Workload").
class ArrivalSqueeze {
 public:
  static constexpr std::int64_t kBinsPerDay = 2048;
  static constexpr SimTime kBinWidth = kDay / kBinsPerDay;
  static_assert(kBinWidth * kBinsPerDay == kDay);
  static constexpr double kMargin = 1e-9;
  // Beyond this many microseconds (~407 days) the table is not built and
  // every test calls relative_intensity: below it, the intensity's
  // floating-point day always equals t / kDay.
  static constexpr SimTime kMaxCovered = SimTime{1} << 45;

  explicit ArrivalSqueeze(const RequestGenerator& generator);

  // Bounds on relative_intensity(t) from the table; {-inf, inf} where it
  // holds none.
  std::array<double, 2> bounds(SimTime t) const {
    if (static_cast<std::uint64_t>(t) >= covered_) {
      return {-std::numeric_limits<double>::infinity(),
              std::numeric_limits<double>::infinity()};
    }
    const std::uint64_t bin =
        static_cast<std::uint64_t>(t) / static_cast<std::uint64_t>(kBinWidth);
    const std::array<double, 2>& factor = diurnal_[bin % kBinsPerDay];
    const double scale = day_scale_[bin / kBinsPerDay];
    return {factor[0] * scale, factor[1] * scale};
  }

  bool accepts(SimTime t, double u) const {
    const auto [lo, hi] = bounds(t);
    if (u < lo) return true;
    if (u > hi) return false;
    return u <= generator_.relative_intensity(t);
  }

 private:
  const RequestGenerator& generator_;
  // Times in [0, covered_) use the table: the duration, or 0.
  std::uint64_t covered_ = 0;
  // Lower and upper bound on the diurnal factor in each bin of the day.
  std::vector<std::array<double, 2>> diurnal_;
  // Each day's growth over the intensity's peak.
  std::vector<double> day_scale_;
};

}  // namespace odr::workload
