// Tests for units, CSV, histogram/time series, tables, arg parsing and the
// guide table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "util/args.h"
#include "util/csv.h"
#include "util/guide_table.h"
#include "util/histogram.h"
#include "util/table.h"
#include "util/units.h"

namespace odr {
namespace {

TEST(UnitsTest, RateConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(rate_to_kbps(kbps_to_rate(125.0)), 125.0);
  EXPECT_DOUBLE_EQ(rate_to_mbps(mbps_to_rate(20.0)), 20.0);
  EXPECT_DOUBLE_EQ(rate_to_gbps(gbps_to_rate(30.0)), 30.0);
  // 1 Mbps = 125 KBps: the paper's playback threshold identity.
  EXPECT_DOUBLE_EQ(rate_to_kbps(mbps_to_rate(1.0)), 125.0);
  // 20 Mbps = 2.5 MBps: a pre-downloader's line rate.
  EXPECT_DOUBLE_EQ(mbps_to_rate(20.0), 2.5e6);
}

TEST(UnitsTest, TimeConversions) {
  EXPECT_DOUBLE_EQ(to_minutes(kHour), 60.0);
  EXPECT_DOUBLE_EQ(to_seconds(from_seconds(12.5)), 12.5);
  EXPECT_EQ(kWeek, 7 * kDay);
  EXPECT_DOUBLE_EQ(to_hours(kDay), 24.0);
}

TEST(UnitsTest, AverageRate) {
  EXPECT_DOUBLE_EQ(average_rate(1000, kSec), 1000.0);
  EXPECT_DOUBLE_EQ(average_rate(1000, 0), 0.0);
  EXPECT_DOUBLE_EQ(average_rate(115 * kMB, 82 * kMinute),
                   115e6 / (82 * 60.0));
}

TEST(CsvTest, EscapeRules) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvTest, RoundTripQuotedFields) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"a", "with,comma", "with \"quote\"", "multi\nline"});
  writer.write_row({"1", "2", "3", "4"});

  std::istringstream in(out.str());
  CsvReader reader(in);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.read_row(row));
  EXPECT_EQ(row, (std::vector<std::string>{"a", "with,comma", "with \"quote\"",
                                           "multi\nline"}));
  ASSERT_TRUE(reader.read_row(row));
  EXPECT_EQ(row, (std::vector<std::string>{"1", "2", "3", "4"}));
  EXPECT_FALSE(reader.read_row(row));
}

TEST(CsvTest, ParseCsvHandlesCrLf) {
  const auto rows = parse_csv("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvTest, LastLineWithoutNewline) {
  const auto rows = parse_csv("a,b\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(HistogramTest, BinAssignmentAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-5.0);   // clamps to bin 0
  h.add(0.5);
  h.add(9.9);
  h.add(100.0);  // clamps to last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

TEST(HistogramTest, WeightedMean) {
  Histogram h(0.0, 10.0, 2);
  h.add(1.0, 4.0);
  h.add(2.0, 6.0);
  EXPECT_DOUBLE_EQ(h.bin_total(0), 10.0);
  EXPECT_DOUBLE_EQ(h.bin_mean(0), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_mean(1), 0.0);
}

TEST(TimeSeriesTest, TransferSpreadsAcrossBins) {
  TimeSeries ts(0, 10 * kSec, kSec);
  // 1000 bytes uniformly over [0.5s, 2.5s): 250 in bin 0, 500 bin 1, 250 bin 2.
  ts.add_transfer(kSec / 2, 2 * kSec + kSec / 2, 1000);
  EXPECT_NEAR(ts.bin_total(0), 250.0, 1e-6);
  EXPECT_NEAR(ts.bin_total(1), 500.0, 1e-6);
  EXPECT_NEAR(ts.bin_total(2), 250.0, 1e-6);
  EXPECT_NEAR(ts.sum(), 1000.0, 1e-6);
}

TEST(TimeSeriesTest, RatesAndPeak) {
  TimeSeries ts(0, 4 * kSec, kSec);
  ts.add_transfer(0, kSec, 500);
  ts.add_transfer(kSec, 2 * kSec, 1500);
  EXPECT_DOUBLE_EQ(ts.bin_rate(0), 500.0);
  EXPECT_DOUBLE_EQ(ts.bin_rate(1), 1500.0);
  EXPECT_DOUBLE_EQ(ts.peak_rate(), 1500.0);
}

TEST(TimeSeriesTest, TransferOutsideWindowClipped) {
  TimeSeries ts(10 * kSec, 20 * kSec, kSec);
  ts.add_transfer(0, 30 * kSec, 3000);  // only 1/3 falls inside
  EXPECT_NEAR(ts.sum(), 1000.0, 1.0);
}

TEST(TimeSeriesTest, InstantaneousSamples) {
  TimeSeries ts(0, 10 * kSec, kSec);
  ts.add_at(5 * kSec + 1, 7.0);
  ts.add_at(100 * kSec, 9.0);  // outside: dropped
  EXPECT_DOUBLE_EQ(ts.bin_total(5), 7.0);
  EXPECT_DOUBLE_EQ(ts.sum(), 7.0);
}

TEST(TextTableTest, RendersAlignedTable) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name "), std::string::npos);
  EXPECT_NE(out.find("| longer-name |"), std::string::npos);
  EXPECT_NE(out.find("+--"), std::string::npos);
}

TEST(TextTableTest, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(0.287, 1), "28.7%");
}

TEST(ArgParserTest, DefaultsAndOverrides) {
  ArgParser args("test");
  args.flag("divisor", "100", "scale");
  args.flag("verbose", "false", "noise");
  const char* argv[] = {"prog", "--divisor=25", "--verbose"};
  ASSERT_TRUE(args.parse(3, const_cast<char**>(argv)));
  EXPECT_EQ(args.get_int("divisor"), 25);
  EXPECT_TRUE(args.get_bool("verbose"));
}

TEST(ArgParserTest, SpaceSeparatedValue) {
  ArgParser args("test");
  args.flag("seed", "1", "seed");
  const char* argv[] = {"prog", "--seed", "42"};
  ASSERT_TRUE(args.parse(3, const_cast<char**>(argv)));
  EXPECT_EQ(args.get_int("seed"), 42);
}

TEST(ArgParserTest, UnknownFlagRejected) {
  ArgParser args("test");
  args.flag("known", "1", "known");
  const char* argv[] = {"prog", "--unknown=5"};
  EXPECT_FALSE(args.parse(2, const_cast<char**>(argv)));
}

// Numeric getters take the whole token, finite values only, and exit 1
// naming the flag and value instead of handing back a silent 0.
TEST(ArgParserTest, MalformedNumbersExitWithMessage) {
  for (const char* value :
       {"abc", "", "40x", "nan", "inf", "1e999", "-5", "0", "1000.5"}) {
    ArgParser args("test");
    args.flag("divisor", "100", "scale");
    const std::string flag = std::string("--divisor=") + value;
    const char* argv[] = {"prog", flag.c_str()};
    ASSERT_TRUE(args.parse(2, const_cast<char**>(argv)));
    EXPECT_EXIT(args.get_double("divisor", 1.0, 1000.0),
                ::testing::ExitedWithCode(1), "bad --divisor value")
        << value;
  }
  // A bound prints in shortest round-trip form: all of 1e6 / 6, not a
  // six-digit 166667 that lies above it.
  {
    const double bound = 1e6 / 6;
    ArgParser args("test");
    args.flag("flash-rate", "0.01", "rate");
    const char* argv[] = {"prog", "--flash-rate=166667"};
    ASSERT_TRUE(args.parse(2, const_cast<char**>(argv)));
    EXPECT_EXIT(args.get_double("flash-rate", 0.5, bound),
                ::testing::ExitedWithCode(1),
                "bad --flash-rate value '166667': need a finite number "
                ">= 0\\.5 and <= 166666\\.66666666666\n");
    EXPECT_EQ(std::strtod("166666.66666666666", nullptr), bound);
  }
  for (const char* value : {"abc", "", "12x", "1.5", "99999999999999999999"}) {
    ArgParser args("test");
    args.flag("seed", "1", "seed");
    const std::string flag = std::string("--seed=") + value;
    const char* argv[] = {"prog", flag.c_str()};
    ASSERT_TRUE(args.parse(2, const_cast<char**>(argv)));
    EXPECT_EXIT(args.get_int("seed"), ::testing::ExitedWithCode(1),
                "bad --seed value")
        << value;
  }
}

TEST(ArgParserTest, WellFormedNumbersParse) {
  ArgParser args("test");
  args.flag("divisor", "100", "scale");
  args.flag("seed", "1", "seed");
  const char* argv[] = {"prog", "--divisor=2.5e1", "--seed", "-7"};
  ASSERT_TRUE(args.parse(4, const_cast<char**>(argv)));
  EXPECT_DOUBLE_EQ(args.get_double("divisor", 1.0), 25.0);
  // Both bounds are inclusive.
  EXPECT_DOUBLE_EQ(args.get_double("divisor", 25.0, 25.0), 25.0);
  EXPECT_EQ(args.get_int("seed"), -7);
}

TEST(GuideTableTest, EmptyTableBuilds) {
  // A trace population with no users builds one; nothing draws from it.
  const util::GuideTable table{std::vector<double>{}};
  EXPECT_TRUE(table.empty());
}

TEST(GuideTableTest, StepsBackWhenTheTargetFallsBelowItsBucketStart) {
  // Each entry sits one ulp below the next bucket's start. A uniform a few
  // ulps under a bucket boundary can round into that bucket while its
  // target falls below the entry the guide points at, so find() must step
  // back to land where lower_bound does.
  for (const std::size_t n : {10u, 100u, 5635u}) {
    const double total = static_cast<double>(n) * 0.7310585786300049;
    std::vector<double> c(n);
    for (std::size_t j = 0; j + 1 < n; ++j) {
      c[j] = std::nextafter(
          static_cast<double>(j + 1) / static_cast<double>(n) * total, 0.0);
    }
    c[n - 1] = total;
    const util::GuideTable table(c);
    for (std::size_t b = 1; b < n; ++b) {
      double u = static_cast<double>(b) / static_cast<double>(n);
      for (int k = 0; k < 4; ++k, u = std::nextafter(u, 0.0)) {
        const auto want = static_cast<std::size_t>(
            std::lower_bound(c.begin(), c.end(), u * total) - c.begin());
        ASSERT_EQ(table.find(u), want) << "n " << n << ", u " << u;
      }
    }
  }
}

}  // namespace
}  // namespace odr
