// Fixed-bin histograms and time-binned series.
//
// TimeSeries backs Fig 11 (cloud upload-bandwidth burden in 5-minute bins
// over the measurement week); Histogram backs the popularity-bucketed
// failure analysis of Fig 10.
#pragma once

#include <cstddef>
#include <vector>

#include "util/units.h"

namespace odr {

// Accumulates (value) into uniform bins over [lo, hi); out-of-range samples
// clamp into the first/last bin.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, double weight = 1.0);

  // Adds another histogram's bins into this one. Requires an identical
  // (lo, hi, bins) shape; used to fold per-worker histograms into a
  // run-wide one after a parallel sweep.
  void merge_from(const Histogram& other);

  std::size_t bin_of(double x) const;
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  double bin_total(std::size_t i) const { return totals_[i]; }
  std::size_t bin_count(std::size_t i) const { return counts_[i]; }
  // Mean sample weight in bin i (0 if empty).
  double bin_mean(std::size_t i) const;
  std::size_t bins() const { return totals_.size(); }

  // Total number of samples added (each add() counts once regardless of
  // weight).
  std::size_t total_count() const;
  // p-quantile (p in [0,1]) of the SAMPLE COUNT distribution, linearly
  // interpolated within the bin that crosses the p*N rank. Out-of-range
  // samples were clamped into the edge bins, so tail quantiles saturate at
  // [lo, hi]. Returns lo on an empty histogram.
  double quantile(double p) const;

 private:
  double lo_, hi_;
  std::vector<double> totals_;
  std::vector<std::size_t> counts_;
};

// Accumulates byte counts into fixed-width time bins and reports each bin's
// average rate (bytes/sec). A transfer spanning several bins spreads its
// bytes proportionally.
class TimeSeries {
 public:
  TimeSeries(SimTime start, SimTime end, SimTime bin_width);

  // Adds `bytes` transferred uniformly over [from, to).
  void add_transfer(SimTime from, SimTime to, Bytes bytes);
  // Adds an instantaneous sample at time t.
  void add_at(SimTime t, double amount);

  std::size_t bins() const { return totals_.size(); }
  double bin_total(std::size_t i) const { return totals_[i]; }
  // Average rate over the bin, in bytes/sec.
  Rate bin_rate(std::size_t i) const;

  double max_total() const;
  Rate peak_rate() const;
  // The p-quantile (p in [0,1]) of the bins' average rates: the smallest
  // bin rate with at least a fraction p of bins at or below it. p = 1 is
  // peak_rate(); 0 on a series without bins.
  Rate rate_quantile(double p) const;
  double sum() const;

 private:
  SimTime start_, end_, width_;
  std::vector<double> totals_;
};

}  // namespace odr
