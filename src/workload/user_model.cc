#include "workload/user_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/fixed_chars.h"

namespace odr::workload {
namespace {

std::string synth_ip(net::Isp isp, UserId id, Rng& rng) {
  // First octet encodes the ISP (purely cosmetic but stable), the rest is
  // derived from the user id so records join consistently.
  const int first = 36 + static_cast<int>(isp) * 20;
  const std::uint64_t h = id * 2654435761u + rng.next_u64() % 251;
  util::FixedChars<15> quad;  // "255.255.255.255"
  quad.number(first).text(".").number((h >> 16) & 0xff).text(".")
      .number((h >> 8) & 0xff).text(".").number(h & 0xff);
  return std::string(quad.view());  // within the small-string buffer
}

}  // namespace

UserPopulation::UserPopulation(const UserModelParams& params, Rng& rng) {
  assert(params.num_users > 0);
  users_.reserve(params.num_users);
  std::vector<double> cumulative_activity;
  cumulative_activity.reserve(params.num_users);
  double acc = 0.0;
  for (std::size_t i = 0; i < params.num_users; ++i) {
    User u;
    u.id = static_cast<UserId>(i);
    const double d = rng.uniform();
    if (d < params.telecom) {
      u.isp = net::Isp::kTelecom;
    } else if (d < params.telecom + params.unicom) {
      u.isp = net::Isp::kUnicom;
    } else if (d < params.telecom + params.unicom + params.mobile) {
      u.isp = net::Isp::kMobile;
    } else if (d < params.telecom + params.unicom + params.mobile +
                       params.cernet) {
      u.isp = net::Isp::kCernet;
    } else {
      u.isp = net::Isp::kOther;
    }
    const double bw = params.bandwidth_median *
                      std::exp(rng.normal(0.0, params.bandwidth_sigma));
    u.access_bandwidth = std::clamp(bw, params.bandwidth_min,
                                    params.bandwidth_max);
    u.reports_bandwidth = rng.bernoulli(params.reports_bandwidth_prob);
    u.ip = synth_ip(u.isp, u.id, rng);
    users_.push_back(std::move(u));

    acc += rng.pareto(1.0, params.activity_alpha);
    cumulative_activity.push_back(acc);
  }
  activity_ = util::GuideTable(std::move(cumulative_activity));
}

UserPopulation::UserPopulation(std::vector<User> users)
    : users_(std::move(users)) {
  std::vector<double> cumulative_activity(users_.size());
  for (std::size_t i = 0; i < users_.size(); ++i) {
    cumulative_activity[i] = static_cast<double>(i + 1);
  }
  activity_ = util::GuideTable(std::move(cumulative_activity));
}

UserId UserPopulation::sample(Rng& rng) const {
  return static_cast<UserId>(activity_.find(rng.uniform()));
}

}  // namespace odr::workload
