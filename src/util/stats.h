// Summary statistics and empirical CDFs.
//
// Every figure in the paper's evaluation is either a CDF (Figs 5, 8, 9, 13,
// 14, 17), a rank/popularity scatter (Figs 6, 7, 10), or a time series
// (Fig 11). EmpiricalCdf + Summary cover the first kind; the others are in
// histogram.h and the analysis module.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace odr {

// Five-number-style summary of a sample.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double median = 0.0;
  double stddev = 0.0;

  std::string str() const;  // "n=… min=… med=… mean=… max=…"
};

Summary summarize(std::vector<double> values);  // by value: sorts a copy

// Empirical CDF over accumulated samples.
class EmpiricalCdf {
 public:
  void add(double v) { values_.push_back(v); sorted_ = false; }
  void add_all(const std::vector<double>& vs);

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  // P(X <= x).
  double fraction_below(double x) const;
  // Smallest sample value v with P(X <= v) >= q, q in [0,1].
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double mean() const;
  double min() const;
  double max() const;

  Summary summary() const;

  // Evaluates the CDF at `points` evenly spaced sample values between min
  // and max — the series a plotting script would consume.
  struct Point {
    double x;
    double cdf;
  };
  std::vector<Point> curve(std::size_t points = 50) const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

// Mean absolute relative error between model and measurement, the paper's
// "average relative error of fitness" (Figs 6-7). Pairs where the
// measured value is zero are skipped.
double mean_relative_error(const std::vector<double>& measured,
                           const std::vector<double>& model);

}  // namespace odr
