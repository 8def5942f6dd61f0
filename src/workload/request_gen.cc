#include "workload/request_gen.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace odr::workload {
namespace {

void require(bool ok, const char* field, const char* range) {
  if (!ok) {
    throw std::invalid_argument(std::string("RequestGenParams.") + field +
                                " must be " + range);
  }
}

// cos(2*pi*x): x counts turns.
double cos_turns(double x) { return std::cos(2.0 * M_PI * x); }

}  // namespace

RequestGenerator::RequestGenerator(const RequestGenParams& params)
    : params_(params) {
  require(params_.diurnal_amplitude >= 0.0 && params_.diurnal_amplitude <= 1.0,
          "diurnal_amplitude", "in [0, 1]");
  require(params_.daily_growth >= 0.0 && std::isfinite(params_.daily_growth),
          "daily_growth", "finite and >= 0");
  require(params_.duration > 0, "duration", "positive");
  require(params_.peak_hour >= 0.0 && params_.peak_hour < 24.0, "peak_hour",
          "in [0, 24)");
  const double num_days = to_hours(params_.duration) / 24.0;
  max_value_ = (1.0 + params_.diurnal_amplitude) *
               (1.0 + params_.daily_growth * std::max(0.0, num_days - 1.0));
}

double RequestGenerator::relative_intensity(SimTime t) const {
  const double hours = to_hours(t);
  const double day = std::floor(hours / 24.0);
  const double hour_of_day = hours - day * 24.0;
  const double phase =
      2.0 * M_PI * (hour_of_day - params_.peak_hour) / 24.0;
  const double diurnal = 1.0 + params_.diurnal_amplitude * std::cos(phase);
  const double growth = 1.0 + params_.daily_growth * day;
  return diurnal * growth / max_value_;
}

ArrivalSqueeze::ArrivalSqueeze(const RequestGenerator& generator)
    : generator_(generator) {
  const RequestGenParams& p = generator.params();
  if (p.duration > kMaxCovered) return;
  covered_ = static_cast<std::uint64_t>(p.duration);
  // A bin spans the phase x0..x1 in turns, (hour - peak_hour) / 24. The
  // factor 1 + amplitude * cos is extreme at the bin's ends, or at 1 + A
  // where the bin holds a whole turn and 1 - A where it holds a half one.
  diurnal_.resize(kBinsPerDay);
  const double peak_turns = p.peak_hour / 24.0;
  for (std::int64_t b = 0; b < kBinsPerDay; ++b) {
    const double x0 = static_cast<double>(b) / kBinsPerDay - peak_turns;
    const double x1 = static_cast<double>(b + 1) / kBinsPerDay - peak_turns;
    const double c0 = cos_turns(x0);
    const double c1 = cos_turns(x1);
    double lo = std::min(c0, c1);
    double hi = std::max(c0, c1);
    if (std::ceil(x0) <= x1) hi = 1.0;
    if (std::ceil(x0 - 0.5) <= x1 - 0.5) lo = -1.0;
    diurnal_[b] = {1.0 + p.diurnal_amplitude * lo - kMargin,
                   1.0 + p.diurnal_amplitude * hi + kMargin};
  }
  const SimTime days = (p.duration + kDay - 1) / kDay;
  day_scale_.resize(static_cast<std::size_t>(days));
  for (SimTime d = 0; d < days; ++d) {
    day_scale_[d] = (1.0 + p.daily_growth * static_cast<double>(d)) /
                    generator.max_value_;
  }
}

bool RequestGenerator::sample_arrival(const Catalog& catalog,
                                      const UserPopulation& users, Rng& rng,
                                      SimTime t, TaskId task_id,
                                      FetchedPairs& seen,
                                      WorkloadRecord& out) {
  // (user, file) with per-user dedup; a handful of retries suffices
  // because collisions are rare outside the very head of the catalog.
  UserId user = 0;
  FileIndex file = kInvalidFile;
  for (int attempt = 0; attempt < 16; ++attempt) {
    user = users.sample(rng);
    file = catalog.sample_request(rng);
    if (first_fetch(seen, user, file)) break;
    file = kInvalidFile;
  }
  if (file == kInvalidFile) return false;  // pathological collision streak

  out = {task_id, user, file, t};
  return true;
}

std::vector<WorkloadRecord> RequestGenerator::generate(
    const Catalog& catalog, const UserPopulation& users, Rng& rng) const {
  std::vector<WorkloadRecord> out;
  {
    // Fetch-at-most-once: a user requests a given P2P video at most once.
    // The table is allocated before `out`, which outlives it: in that order
    // perfbench cloud_week's peak RSS measured 29.5 MiB, against 32.9 with
    // the table allocated after `out`. It is released before the sort
    // allocates its scratch.
    FetchedPairs seen;
    seen.reserve(params_.num_requests);
    out.reserve(params_.num_requests);

    const ArrivalSqueeze squeeze(*this);
    for (std::size_t i = 0; i < params_.num_requests; ++i) {
      // Arrival time by rejection sampling against the diurnal intensity.
      SimTime t = 0;
      for (;;) {
        t = static_cast<SimTime>(rng.uniform() *
                                 static_cast<double>(params_.duration));
        if (squeeze.accepts(t, rng.uniform())) break;
      }

      WorkloadRecord r;
      if (!sample_arrival(catalog, users, rng, t,
                          static_cast<TaskId>(out.size() + 1), seen, r)) {
        continue;  // pathological collision streak
      }
      out.push_back(r);
    }
  }

  sort_by_arrival(out);
  // Reassign task ids in time order so ids are chronological.
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].task_id = static_cast<TaskId>(i + 1);
  }
  return out;
}

}  // namespace odr::workload
