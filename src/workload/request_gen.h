// Request-trace generation: who asks for what, when.
//
// Arrival times follow a diurnal intensity (evening peak) with a mild
// day-over-day growth factor so that load peaks on the 7th day — the day
// Xuanfeng's purchased upload bandwidth was exceeded (Fig 11). File choice
// follows the catalog's SE popularity law with a fetch-at-most-once
// constraint per user (§3's explanation for why SE beats Zipf); user
// choice follows the heavy-tailed activity weights of the population.
#pragma once

#include <cstdint>
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
  explicit RequestGenerator(const RequestGenParams& params = {})
      : params_(params) {}

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
  RequestGenParams params_;
};

}  // namespace odr::workload
