#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace odr {

Summary summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  s.mean = std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
  const std::size_t n = values.size();
  s.median = (n % 2 == 1) ? values[n / 2]
                          : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  double var = 0.0;
  for (double v : values) var += (v - s.mean) * (v - s.mean);
  s.stddev = n > 1 ? std::sqrt(var / static_cast<double>(n - 1)) : 0.0;
  return s;
}

std::string Summary::str() const {
  std::ostringstream os;
  os << "n=" << count << " min=" << min << " med=" << median
     << " mean=" << mean << " max=" << max;
  return os.str();
}

void EmpiricalCdf::add_all(const std::vector<double>& vs) {
  values_.insert(values_.end(), vs.begin(), vs.end());
  sorted_ = false;
}

void EmpiricalCdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double EmpiricalCdf::fraction_below(double x) const {
  if (values_.empty()) return 0.0;
  ensure_sorted();
  auto it = std::upper_bound(values_.begin(), values_.end(), x);
  return static_cast<double>(it - values_.begin()) /
         static_cast<double>(values_.size());
}

double EmpiricalCdf::quantile(double q) const {
  if (values_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const std::size_t n = values_.size();
  const std::size_t idx = q <= 0.0
                              ? 0
                              : std::min(n - 1, static_cast<std::size_t>(
                                                    std::ceil(q * n) - 1));
  return values_[idx];
}

double EmpiricalCdf::mean() const {
  if (values_.empty()) return 0.0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

double EmpiricalCdf::min() const {
  ensure_sorted();
  return values_.empty() ? 0.0 : values_.front();
}

double EmpiricalCdf::max() const {
  ensure_sorted();
  return values_.empty() ? 0.0 : values_.back();
}

Summary EmpiricalCdf::summary() const {
  ensure_sorted();
  return summarize(values_);
}

std::vector<EmpiricalCdf::Point> EmpiricalCdf::curve(std::size_t points) const {
  std::vector<Point> out;
  if (values_.empty() || points < 2) return out;
  ensure_sorted();
  const double lo = values_.front();
  const double hi = values_.back();
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
    out.push_back({x, fraction_below(x)});
  }
  return out;
}

double mean_relative_error(const std::vector<double>& measured,
                           const std::vector<double>& model) {
  const std::size_t n = std::min(measured.size(), model.size());
  double sum = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (measured[i] == 0.0) continue;
    sum += std::abs(model[i] - measured[i]) / std::abs(measured[i]);
    ++used;
  }
  return used == 0 ? 0.0 : sum / static_cast<double>(used);
}

}  // namespace odr
