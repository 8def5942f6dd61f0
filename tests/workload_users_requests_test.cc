// User population and request generator tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <sstream>
#include <string>
#include <unordered_map>

#include "net/isp.h"
#include "util/csv.h"
#include "util/stats.h"
#include "workload/catalog.h"
#include "workload/request_gen.h"
#include "workload/trace.h"
#include "workload/user_model.h"

namespace odr::workload {
namespace {

UserModelParams user_params() {
  UserModelParams p;
  p.num_users = 20000;
  return p;
}

class UserPopulationTest : public ::testing::Test {
 protected:
  Rng rng{11};
  UserPopulation users{user_params(), rng};
};

TEST_F(UserPopulationTest, IspSharesMatchConfiguration) {
  std::array<int, net::kIspCount> counts{};
  for (const auto& u : users.users()) ++counts[static_cast<int>(u.isp)];
  const double n = static_cast<double>(users.size());
  EXPECT_NEAR(counts[static_cast<int>(net::Isp::kTelecom)] / n, 0.44, 0.02);
  EXPECT_NEAR(counts[static_cast<int>(net::Isp::kUnicom)] / n, 0.26, 0.02);
  // ~9.6% outside the four major ISPs: the ISP-barrier population (§4.2).
  EXPECT_NEAR(counts[static_cast<int>(net::Isp::kOther)] / n, 0.096, 0.015);
}

TEST_F(UserPopulationTest, BandwidthDistributionAnchors) {
  EmpiricalCdf bw;
  for (const auto& u : users.users()) {
    EXPECT_GE(u.access_bandwidth, user_params().bandwidth_min);
    EXPECT_LE(u.access_bandwidth, user_params().bandwidth_max);
    bw.add(u.access_bandwidth);
  }
  // ~10.8% of users below the 125 KBps playback line (§4.2).
  EXPECT_NEAR(bw.fraction_below(kbps_to_rate(125.0)), 0.108, 0.03);
  EXPECT_NEAR(bw.median(), kbps_to_rate(380.0), kbps_to_rate(40.0));
}

TEST_F(UserPopulationTest, SomeUsersDoNotReportBandwidth) {
  std::size_t reporting = 0;
  for (const auto& u : users.users()) reporting += u.reports_bandwidth ? 1 : 0;
  EXPECT_NEAR(reporting / static_cast<double>(users.size()), 0.8, 0.02);
}

TEST_F(UserPopulationTest, ActivitySamplingIsSkewed) {
  Rng sample_rng(3);
  std::unordered_map<UserId, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[users.sample(sample_rng)];
  int max_count = 0;
  for (const auto& [id, c] : counts) max_count = std::max(max_count, c);
  // Heavy-tailed activity: the most active user gets far more than the
  // uniform share (n / num_users = 5).
  EXPECT_GT(max_count, 50);
}

TEST_F(UserPopulationTest, SampleMatchesLowerBound) {
  // The guide table must pick exactly the user a binary search over the
  // cumulative activity picks, for the same uniform.
  const util::GuideTable& table = users.activity();
  const std::vector<double>& c = table.cumulative();
  const auto reference = [&](double u) {
    return static_cast<std::size_t>(
        std::lower_bound(c.begin(), c.end(), u * c.back()) - c.begin());
  };
  Rng a(3), b(3);
  for (int i = 0; i < 1000000; ++i) {
    const std::size_t want = reference(b.uniform());
    ASSERT_EQ(users.sample(a), want) << "draw " << i;
  }
  EXPECT_EQ(table.find(0.0), 0u);
  for (const double boundary : c) {
    const double u = boundary / c.back();
    for (const double v : {std::nextafter(u, 0.0), u, std::nextafter(u, 1.0)}) {
      if (v < 1.0) {
        ASSERT_EQ(table.find(v), reference(v)) << "u = " << v;
      }
    }
  }
}

TEST_F(UserPopulationTest, IpsAreStablePerUser) {
  const User& u = users.user(42);
  EXPECT_FALSE(u.ip.empty());
  EXPECT_EQ(u.ip, users.user(42).ip);
  // Dotted quad shape.
  EXPECT_EQ(std::count(u.ip.begin(), u.ip.end(), '.'), 3);
}

class RequestGeneratorTest : public ::testing::Test {
 protected:
  static CatalogParams catalog_params() {
    CatalogParams p;
    p.num_files = 2000;
    p.total_weekly_requests = 14500;
    return p;
  }
  static RequestGenParams gen_params() {
    RequestGenParams p;
    p.num_requests = 14500;
    return p;
  }

  Rng rng{23};
  Catalog catalog{catalog_params(), rng};
  UserPopulation users{user_params(), rng};
  RequestGenerator generator{gen_params()};
};

TEST_F(RequestGeneratorTest, GeneratesSortedChronologicalIds) {
  const auto trace = generator.generate(catalog, users, rng);
  ASSERT_GT(trace.size(), gen_params().num_requests * 95 / 100);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].request_time, trace[i].request_time);
    EXPECT_EQ(trace[i].task_id, trace[i - 1].task_id + 1);
  }
  EXPECT_EQ(trace.front().task_id, 1u);
}

TEST_F(RequestGeneratorTest, TimesWithinDuration) {
  const auto trace = generator.generate(catalog, users, rng);
  for (const auto& r : trace) {
    EXPECT_GE(r.request_time, 0);
    EXPECT_LT(r.request_time, gen_params().duration);
  }
}

TEST_F(RequestGeneratorTest, FetchAtMostOncePerUserAndFile) {
  const auto trace = generator.generate(catalog, users, rng);
  std::set<std::pair<UserId, FileIndex>> seen;
  for (const auto& r : trace) {
    EXPECT_TRUE(seen.insert({r.user_id, r.file}).second)
        << "duplicate (user,file) pair";
  }
}

TEST(FetchedPairsTest, StoresUserZeroFileZeroAndRefusesItsRepeat) {
  // (user 0, file 0) packs to key 0, FlatMap64's empty marker.
  FetchedPairs seen;
  EXPECT_TRUE(first_fetch(seen, 0, 0));
  EXPECT_FALSE(first_fetch(seen, 0, 0));
  EXPECT_TRUE(first_fetch(seen, 0, 1));
  EXPECT_TRUE(first_fetch(seen, 1, 0));
  EXPECT_FALSE(first_fetch(seen, 1, 0));
  EXPECT_EQ(seen.size(), 3u);
}

TEST_F(RequestGeneratorTest, RecordsCarryConsistentFileMetadata) {
  // A record names its file and user; the workload CSV renders their
  // attributes, so every rendered row must match the catalog and users.
  const auto trace = generator.generate(catalog, users, rng);
  std::ostringstream out;
  write_workload_csv(out, trace, catalog, users);
  std::istringstream in(out.str());
  CsvReader reader(in);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.read_row(row));  // header
  for (const auto& r : trace) {
    ASSERT_TRUE(reader.read_row(row));
    ASSERT_EQ(row.size(), 11u);
    EXPECT_EQ(row[0], std::to_string(r.task_id));
    EXPECT_EQ(row[1], std::to_string(r.user_id));
    EXPECT_EQ(row[5], std::to_string(r.request_time));
    EXPECT_EQ(row[6], std::to_string(r.file));
    const User& u = users.user(r.user_id);
    EXPECT_EQ(row[2], u.ip);
    EXPECT_EQ(row[3], std::to_string(static_cast<int>(u.isp)));
    // Printed with 6 significant digits; 0 when the user does not report.
    const double bw = u.reports_bandwidth ? u.access_bandwidth : 0.0;
    EXPECT_NEAR(std::stod(row[4]), bw, bw * 1e-5);
    const FileInfo& f = catalog.file(r.file);
    EXPECT_EQ(row[7], std::to_string(static_cast<int>(f.type)));
    EXPECT_EQ(row[8], std::to_string(f.size));
    EXPECT_EQ(row[9], f.source_link);
    EXPECT_EQ(row[10], std::to_string(static_cast<int>(f.protocol)));
  }
  EXPECT_FALSE(reader.read_row(row));
}

TEST_F(RequestGeneratorTest, DiurnalIntensityPeaksInTheEvening) {
  // Intensity at the configured peak hour must exceed the off-peak floor.
  const SimTime peak = from_seconds(21.0 * 3600);          // 21:00 day 0
  const SimTime trough = from_seconds(9.0 * 3600);         // 09:00 day 0
  EXPECT_GT(generator.relative_intensity(peak),
            generator.relative_intensity(trough));
  for (SimTime t = 0; t < kWeek; t += kHour) {
    const double v = generator.relative_intensity(t);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0 + 1e-9);
  }
}

TEST_F(RequestGeneratorTest, LoadGrowsTowardDaySeven) {
  const auto trace = generator.generate(catalog, users, rng);
  std::array<int, 7> per_day{};
  for (const auto& r : trace) {
    ++per_day[std::min<int>(6, static_cast<int>(r.request_time / kDay))];
  }
  // Day 7 carries the weekly peak (Fig 11's capacity excess).
  EXPECT_GT(per_day[6], per_day[0]);
}

// RequestGenerator refuses parameters outside the ranges its intensity
// bounds and arrival sort assume, naming the field.
void expect_refused(const RequestGenParams& p, const std::string& field) {
  try {
    const RequestGenerator generator(p);
    ADD_FAILURE() << field << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(RequestGenParamsTest, RefusesAmplitudeOutsideUnitInterval) {
  for (const double a : {-0.01, 1.01, std::nan("")}) {
    RequestGenParams p;
    p.diurnal_amplitude = a;
    expect_refused(p, "diurnal_amplitude");
  }
}

TEST(RequestGenParamsTest, RefusesNegativeOrInfiniteDailyGrowth) {
  for (const double g : {-0.01, std::numeric_limits<double>::infinity(),
                         std::nan("")}) {
    RequestGenParams p;
    p.daily_growth = g;
    expect_refused(p, "daily_growth");
  }
}

TEST(RequestGenParamsTest, RefusesNonPositiveDuration) {
  for (const SimTime d : {SimTime{0}, SimTime{-1}}) {
    RequestGenParams p;
    p.duration = d;
    expect_refused(p, "duration");
  }
}

TEST(RequestGenParamsTest, RefusesPeakHourOutsideTheDay) {
  for (const double h : {-0.5, 24.0, std::nan("")}) {
    RequestGenParams p;
    p.peak_hour = h;
    expect_refused(p, "peak_hour");
  }
}

TEST(RequestGenParamsTest, AcceptsTheRangesEdges) {
  RequestGenParams p;
  p.diurnal_amplitude = 1.0;
  p.daily_growth = 0.0;
  p.duration = 1;
  p.peak_hour = 0.0;
  EXPECT_NO_THROW(RequestGenerator{p});
  p.diurnal_amplitude = 0.0;
  p.peak_hour = std::nextafter(24.0, 0.0);
  EXPECT_NO_THROW(RequestGenerator{p});
}

}  // namespace
}  // namespace odr::workload
