#include "workload/request_gen.h"

#include <algorithm>
#include <cmath>

namespace odr::workload {

double RequestGenerator::relative_intensity(SimTime t) const {
  const double hours = to_hours(t);
  const double day = std::floor(hours / 24.0);
  const double hour_of_day = hours - day * 24.0;
  const double phase =
      2.0 * M_PI * (hour_of_day - params_.peak_hour) / 24.0;
  const double diurnal = 1.0 + params_.diurnal_amplitude * std::cos(phase);
  const double growth = 1.0 + params_.daily_growth * day;
  const double num_days = to_hours(params_.duration) / 24.0;
  const double max_value = (1.0 + params_.diurnal_amplitude) *
                           (1.0 + params_.daily_growth * std::max(0.0, num_days - 1.0));
  return diurnal * growth / max_value;
}

bool RequestGenerator::sample_arrival(const Catalog& catalog,
                                      const UserPopulation& users, Rng& rng,
                                      SimTime t, TaskId task_id,
                                      std::unordered_set<std::uint64_t>& seen,
                                      WorkloadRecord& out) {
  // (user, file) with per-user dedup; a handful of retries suffices
  // because collisions are rare outside the very head of the catalog.
  UserId user = 0;
  FileIndex file = kInvalidFile;
  for (int attempt = 0; attempt < 16; ++attempt) {
    user = users.sample(rng);
    file = catalog.sample_request(rng);
    const std::uint64_t key = (static_cast<std::uint64_t>(user) << 32) | file;
    if (seen.insert(key).second) break;
    file = kInvalidFile;
  }
  if (file == kInvalidFile) return false;  // pathological collision streak

  const User& u = users.user(user);
  const FileInfo& f = catalog.file(file);
  out.task_id = task_id;
  out.user_id = user;
  out.ip = u.ip;
  out.isp = u.isp;
  out.access_bandwidth = u.reports_bandwidth ? u.access_bandwidth : 0.0;
  out.request_time = t;
  out.file = file;
  out.file_type = f.type;
  out.file_size = f.size;
  out.source_link = f.source_link;
  out.protocol = f.protocol;
  return true;
}

std::vector<WorkloadRecord> RequestGenerator::generate(
    const Catalog& catalog, const UserPopulation& users, Rng& rng) const {
  std::vector<WorkloadRecord> out;
  out.reserve(params_.num_requests);

  // Fetch-at-most-once: a user requests a given P2P video at most once.
  // (64-bit key: user id << 32 | file index.)
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(params_.num_requests * 2);

  for (std::size_t i = 0; i < params_.num_requests; ++i) {
    // Arrival time by rejection sampling against the diurnal intensity.
    SimTime t = 0;
    for (;;) {
      t = static_cast<SimTime>(rng.uniform() *
                               static_cast<double>(params_.duration));
      if (rng.uniform() <= relative_intensity(t)) break;
    }

    WorkloadRecord r;
    if (!sample_arrival(catalog, users, rng, t,
                        static_cast<TaskId>(out.size() + 1), seen, r)) {
      continue;  // pathological collision streak
    }
    out.push_back(std::move(r));
  }

  sort_by_arrival(out);
  // Reassign task ids in time order so ids are chronological.
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].task_id = static_cast<TaskId>(i + 1);
  }
  return out;
}

}  // namespace odr::workload
