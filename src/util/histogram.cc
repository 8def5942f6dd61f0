#include "util/histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace odr {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), totals_(bins, 0.0), counts_(bins, 0) {
  assert(hi > lo);
  assert(bins > 0);
}

std::size_t Histogram::bin_of(double x) const {
  if (x < lo_) return 0;
  const double f = (x - lo_) / (hi_ - lo_);
  const auto idx = static_cast<std::size_t>(f * static_cast<double>(bins()));
  return std::min(idx, bins() - 1);
}

void Histogram::add(double x, double weight) {
  const std::size_t i = bin_of(x);
  totals_[i] += weight;
  counts_[i] += 1;
}

void Histogram::merge_from(const Histogram& other) {
  assert(other.lo_ == lo_ && other.hi_ == hi_ &&
         other.totals_.size() == totals_.size() &&
         "merge_from requires an identical histogram shape");
  for (std::size_t i = 0; i < totals_.size(); ++i) {
    totals_[i] += other.totals_[i];
    counts_[i] += other.counts_[i];
  }
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(bins());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

std::size_t Histogram::total_count() const {
  std::size_t n = 0;
  for (std::size_t c : counts_) n += c;
  return n;
}

double Histogram::quantile(double p) const {
  const std::size_t n = total_count();
  if (n == 0) return lo_;
  p = std::min(1.0, std::max(0.0, p));
  // Rank in (0, n]; the quantile is where the cumulative count reaches it.
  const double rank = std::max(p * static_cast<double>(n), 1e-12);
  double cum = 0.0;
  for (std::size_t i = 0; i < bins(); ++i) {
    const double c = static_cast<double>(counts_[i]);
    if (cum + c >= rank && c > 0.0) {
      const double frac = (rank - cum) / c;
      return bin_lo(i) + frac * (bin_hi(i) - bin_lo(i));
    }
    cum += c;
  }
  return hi_;
}

double Histogram::bin_mean(std::size_t i) const {
  return counts_[i] == 0 ? 0.0
                         : totals_[i] / static_cast<double>(counts_[i]);
}

TimeSeries::TimeSeries(SimTime start, SimTime end, SimTime bin_width)
    : start_(start), end_(end), width_(bin_width) {
  assert(end > start);
  assert(bin_width > 0);
  const auto n = static_cast<std::size_t>((end - start + bin_width - 1) / bin_width);
  totals_.assign(n, 0.0);
}

void TimeSeries::add_transfer(SimTime from, SimTime to, Bytes bytes) {
  if (to <= from || bytes == 0) return;
  // Rate over the ORIGINAL interval; clamping below only clips which
  // portion of the transfer falls inside the observation window.
  const double rate =
      static_cast<double>(bytes) / static_cast<double>(to - from);
  from = std::max(from, start_);
  to = std::min(to, end_);
  if (to <= from) return;
  SimTime t = from;
  while (t < to) {
    const auto bin = static_cast<std::size_t>((t - start_) / width_);
    if (bin >= totals_.size()) break;
    const SimTime bin_end = start_ + static_cast<SimTime>(bin + 1) * width_;
    const SimTime seg_end = std::min(to, bin_end);
    totals_[bin] += rate * static_cast<double>(seg_end - t);
    t = seg_end;
  }
}

void TimeSeries::add_at(SimTime t, double amount) {
  if (t < start_ || t >= end_) return;
  const auto bin = static_cast<std::size_t>((t - start_) / width_);
  if (bin < totals_.size()) totals_[bin] += amount;
}

Rate TimeSeries::bin_rate(std::size_t i) const {
  return totals_[i] / to_seconds(width_);
}

double TimeSeries::max_total() const {
  return totals_.empty() ? 0.0
                         : *std::max_element(totals_.begin(), totals_.end());
}

Rate TimeSeries::peak_rate() const { return max_total() / to_seconds(width_); }

Rate TimeSeries::rate_quantile(double p) const {
  if (totals_.empty()) return 0.0;
  std::vector<double> sorted = totals_;
  const std::size_t n = sorted.size();
  p = std::clamp(p, 0.0, 1.0);
  const std::size_t rank =
      p <= 0.0 ? 0
               : std::min(n - 1, static_cast<std::size_t>(
                                     std::ceil(p * static_cast<double>(n)) - 1));
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(rank),
                   sorted.end());
  return sorted[rank] / to_seconds(width_);
}

double TimeSeries::sum() const {
  double s = 0.0;
  for (double v : totals_) s += v;
  return s;
}

}  // namespace odr
