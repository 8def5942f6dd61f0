// Edge cases for util/histogram: Histogram's lo/hi clamping and bin
// boundaries, quantile interpolation (cross-checked against the exact
// util/stats EmpiricalCdf), and TimeSeries' handling of degenerate or
// out-of-window transfers and boundary samples.
#include "util/histogram.h"

#include "gtest/gtest.h"
#include "util/stats.h"
#include "util/units.h"

namespace odr {
namespace {

// --- Histogram -------------------------------------------------------------

TEST(HistogramTest, BelowRangeClampsIntoFirstBin) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(-0.001);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_DOUBLE_EQ(h.bin_total(0), 2.0);
}

TEST(HistogramTest, AtOrAboveHiClampsIntoLastBin) {
  Histogram h(0.0, 10.0, 5);
  h.add(10.0);   // hi itself is outside [lo, hi)
  h.add(1e9);
  EXPECT_EQ(h.bin_count(4), 2u);
  for (std::size_t i = 0; i + 1 < h.bins(); ++i) {
    EXPECT_EQ(h.bin_count(i), 0u) << "bin " << i;
  }
}

TEST(HistogramTest, SamplesExactlyOnInteriorBinBoundaries) {
  Histogram h(0.0, 10.0, 5);  // bins [0,2) [2,4) [4,6) [6,8) [8,10)
  h.add(2.0);
  h.add(4.0);
  h.add(8.0);
  EXPECT_EQ(h.bin_of(2.0), 1u);  // boundary belongs to the upper bin
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(2), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_EQ(h.bin_count(0), 0u);
}

TEST(HistogramTest, BinEdgesPartitionTheRange) {
  Histogram h(-4.0, 4.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), -4.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), -2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
}

TEST(HistogramTest, WeightedAddAndBinMean) {
  Histogram h(0.0, 10.0, 5);
  h.add(1.0, 3.0);
  h.add(1.5, 5.0);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_DOUBLE_EQ(h.bin_total(0), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_mean(0), 4.0);
  EXPECT_DOUBLE_EQ(h.bin_mean(1), 0.0);  // empty bin
}

// --- Histogram::quantile ---------------------------------------------------

TEST(HistogramQuantileTest, EmptyHistogramReturnsLo) {
  Histogram h(5.0, 10.0, 4);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
}

TEST(HistogramQuantileTest, InterpolatesLinearlyInsideABin) {
  // All four samples land in bin 0 = [0, 2): the quantile walks the bin
  // linearly by rank, independent of where in the bin the samples fell.
  Histogram h(0.0, 10.0, 5);
  for (int i = 0; i < 4; ++i) h.add(1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 0.5);  // rank 1 of 4 -> 1/4 through
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);   // full bin -> its upper edge
}

TEST(HistogramQuantileTest, PIsClampedInto01) {
  Histogram h(0.0, 10.0, 5);
  h.add(3.0);
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(HistogramQuantileTest, MonotoneNonDecreasingInP) {
  Histogram h(0.0, 100.0, 20);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>((i * 37) % 100));
  double prev = h.quantile(0.0);
  for (double p = 0.05; p <= 1.0; p += 0.05) {
    const double q = h.quantile(p);
    EXPECT_GE(q, prev) << "p=" << p;
    prev = q;
  }
}

TEST(HistogramQuantileTest, TailSaturatesAtHiWhenSamplesWereClamped) {
  Histogram h(0.0, 10.0, 5);
  h.add(5.0);
  h.add(1e9);  // clamped into the last bin
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(HistogramQuantileTest, AgreesWithEmpiricalCdfWithinOneBin) {
  // The binned quantile can never be further than one bin width from the
  // exact sample quantile. Deterministic LCG, no <random>.
  Histogram h(0.0, 1000.0, 500);  // 2-unit bins
  EmpiricalCdf exact;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 4000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double v = static_cast<double>(x % 100000) / 100.0;  // [0, 1000)
    h.add(v);
    exact.add(v);
  }
  const double bin_width = 2.0;
  for (const double p : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    EXPECT_NEAR(h.quantile(p), exact.quantile(p), bin_width) << "p=" << p;
  }
}

// --- TimeSeries ------------------------------------------------------------

TEST(TimeSeriesTest, ZeroDurationTransferIsIgnored) {
  TimeSeries ts(0, kHour, kMinute);
  ts.add_transfer(10 * kMinute, 10 * kMinute, 1'000'000);  // to == from
  ts.add_transfer(10 * kMinute, 9 * kMinute, 1'000'000);   // to < from
  EXPECT_DOUBLE_EQ(ts.sum(), 0.0);
}

TEST(TimeSeriesTest, ZeroByteTransferIsIgnored) {
  TimeSeries ts(0, kHour, kMinute);
  ts.add_transfer(0, 10 * kMinute, 0);
  EXPECT_DOUBLE_EQ(ts.sum(), 0.0);
}

TEST(TimeSeriesTest, TransfersEntirelyOutsideTheWindowAreIgnored) {
  TimeSeries ts(kHour, 2 * kHour, kMinute);
  ts.add_transfer(0, 30 * kMinute, 1'000'000);              // before start
  ts.add_transfer(3 * kHour, 4 * kHour, 1'000'000);         // after end
  EXPECT_DOUBLE_EQ(ts.sum(), 0.0);
}

TEST(TimeSeriesTest, PartialOverlapClipsButKeepsTheOriginalRate) {
  // 120s transfer at 100 bytes/s, but only the last 60s are in-window:
  // exactly half the bytes land, all in the first bin.
  TimeSeries ts(kMinute, 3 * kMinute, kMinute);
  ts.add_transfer(0, 2 * kMinute, 12'000);
  EXPECT_DOUBLE_EQ(ts.bin_total(0), 6'000.0);
  EXPECT_DOUBLE_EQ(ts.bin_total(1), 0.0);
  EXPECT_DOUBLE_EQ(ts.sum(), 6'000.0);
}

TEST(TimeSeriesTest, SpanningTransferSplitsProportionally) {
  TimeSeries ts(0, 3 * kMinute, kMinute);
  // 90s at a constant rate: 2/3 in bin 0, 1/3 in bin 1.
  ts.add_transfer(30 * kSec, 2 * kMinute, 9'000);
  EXPECT_DOUBLE_EQ(ts.bin_total(0), 3'000.0);
  EXPECT_DOUBLE_EQ(ts.bin_total(1), 6'000.0);
  EXPECT_DOUBLE_EQ(ts.bin_rate(1), 100.0);  // 6000 bytes over a 60 s bin
}

TEST(TimeSeriesTest, SamplesOnBinBoundaries) {
  TimeSeries ts(0, 3 * kMinute, kMinute);
  ts.add_at(0, 1.0);             // first instant of bin 0
  ts.add_at(kMinute, 2.0);       // boundary belongs to bin 1
  ts.add_at(3 * kMinute, 99.0);  // == end: ignored
  ts.add_at(-1, 99.0);           // before start: ignored
  EXPECT_DOUBLE_EQ(ts.bin_total(0), 1.0);
  EXPECT_DOUBLE_EQ(ts.bin_total(1), 2.0);
  EXPECT_DOUBLE_EQ(ts.bin_total(2), 0.0);
  EXPECT_DOUBLE_EQ(ts.sum(), 3.0);
}

TEST(TimeSeriesTest, PeakAndMaxOverBins) {
  TimeSeries ts(0, 3 * kMinute, kMinute);
  ts.add_at(10 * kSec, 5.0);
  ts.add_at(70 * kSec, 9.0);
  EXPECT_DOUBLE_EQ(ts.max_total(), 9.0);
  EXPECT_DOUBLE_EQ(ts.peak_rate(), 9.0 / 60.0);
}

TEST(TimeSeriesTest, RateQuantileIsNearestRankOverBins) {
  // Twenty 1-minute bins holding 1..20 bytes, added out of order.
  TimeSeries ts(0, 20 * kMinute, kMinute);
  for (int i = 19; i >= 0; --i) ts.add_at(i * kMinute, i + 1.0);
  EXPECT_DOUBLE_EQ(ts.rate_quantile(0.0), 1.0 / 60.0);
  EXPECT_DOUBLE_EQ(ts.rate_quantile(0.5), 10.0 / 60.0);
  // One burst bin moves the peak but not the 95th percentile.
  EXPECT_DOUBLE_EQ(ts.rate_quantile(0.95), 19.0 / 60.0);
  ts.add_at(19 * kMinute, 1000.0);
  EXPECT_DOUBLE_EQ(ts.rate_quantile(0.95), 19.0 / 60.0);
  EXPECT_DOUBLE_EQ(ts.rate_quantile(1.0), ts.peak_rate());
}

}  // namespace
}  // namespace odr
