// User population: ISPs, access bandwidth, and per-user activity skew.
//
// Calibration anchors from the paper:
//   - 9.6% of fetch processes are limited by the ISP barrier because the
//     user is outside all four major ISPs (§4.2) -> P(Isp::kOther) ~ 0.096;
//   - 10.8% of fetch processes are limited by user access bandwidth below
//     125 KBps -> lognormal access bandwidth with median ~300 KBps and
//     sigma ~0.72 puts 10.8% of users under that line;
//   - max observed fetch speed 6.1 MBps (~50 Mbps) -> clamp;
//   - 783,944 users issued 4,084,417 tasks -> ~5.2 tasks/user, with a
//     heavy-tailed per-user activity distribution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/isp.h"
#include "util/guide_table.h"
#include "util/rng.h"
#include "util/units.h"

namespace odr::workload {

using UserId = std::uint32_t;

struct User {
  UserId id = 0;
  net::Isp isp = net::Isp::kTelecom;
  Rate access_bandwidth = 0.0;  // downlink, bytes/sec
  // Some Xuanfeng users do not report access bandwidth (§4.2 footnote); the
  // analysis then falls back to the peak observed fetch speed.
  bool reports_bandwidth = true;
  std::string ip;  // synthetic dotted quad, stable per user

  // The bandwidth the traces record: 0 when the user does not report it.
  Rate reported_bandwidth() const {
    return reports_bandwidth ? access_bandwidth : 0.0;
  }
};

struct UserModelParams {
  std::size_t num_users = 39000;
  // ISP shares; kOther calibrated to the 9.6% barrier-limited fetches.
  double telecom = 0.44;
  double unicom = 0.26;
  double mobile = 0.15;
  double cernet = 0.054;
  // remainder -> kOther (~0.096)

  Rate bandwidth_median = kbps_to_rate(380.0);
  double bandwidth_sigma = 0.88;
  Rate bandwidth_min = kbps_to_rate(24.0);
  Rate bandwidth_max = mbps_to_rate(50.0);  // 6.25 MBps ceiling (§2.1)
  double reports_bandwidth_prob = 0.8;

  // Per-user activity weights ~ Pareto(1, alpha); smaller alpha = heavier
  // concentration of requests on few users.
  double activity_alpha = 1.6;
};

class UserPopulation {
 public:
  UserPopulation(const UserModelParams& params, Rng& rng);

  // Reconstructs a population from externally supplied users (e.g.
  // recovered from a trace); sample() is uniform over them.
  explicit UserPopulation(std::vector<User> users);

  // Mutable access for trace overlays (recorded ISP/bandwidth).
  User& mutable_user(UserId id) { return users_.at(id); }

  std::size_t size() const { return users_.size(); }
  const User& user(UserId id) const { return users_.at(id); }
  const std::vector<User>& users() const { return users_; }

  // Draws a user for the next request, weighted by activity.
  UserId sample(Rng& rng) const;
  // The cumulative activity weights sample() inverts.
  const util::GuideTable& activity() const { return activity_; }

 private:
  std::vector<User> users_;
  util::GuideTable activity_;  // over the cumulative activity weights
};

}  // namespace odr::workload
