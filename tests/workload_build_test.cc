// The world build: bit-identity pins of the generated workload, and the
// exact shortcuts the generator takes (the squeezed arrival decision and
// the radix arrival sort) checked against the plain definitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/replay.h"
#include "util/digest.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/request_gen.h"
#include "workload/trace.h"
#include "workload/user_model.h"

namespace odr::workload {
namespace {

std::uint64_t fold_text(std::uint64_t d, std::string_view s) {
  d = digest_step(d, s.size());
  for (const char c : s) d = digest_step(d, static_cast<unsigned char>(c));
  return d;
}

std::uint64_t fold_double(std::uint64_t d, double v) {
  return digest_step(d, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t catalog_digest(const Catalog& catalog) {
  std::uint64_t d = 0;
  for (const FileInfo& f : catalog.files()) {
    for (const std::uint8_t b : f.content_id.bytes) d = digest_step(d, b);
    d = fold_text(d, f.source_link);
    d = digest_step(d, f.size);
    d = digest_step(d, static_cast<std::uint64_t>(f.type));
    d = digest_step(d, static_cast<std::uint64_t>(f.protocol));
    d = fold_double(d, f.expected_weekly_requests);
    d = digest_step(d, f.born_before_trace ? 1 : 0);
  }
  return d;
}

std::uint64_t users_digest(const UserPopulation& users) {
  std::uint64_t d = 0;
  for (const User& u : users.users()) {
    d = fold_text(d, u.ip);
    d = digest_step(d, static_cast<std::uint64_t>(u.isp));
    d = fold_double(d, u.access_bandwidth);
    d = digest_step(d, u.reports_bandwidth ? 1 : 0);
  }
  return d;
}

std::uint64_t requests_digest(const std::vector<WorkloadRecord>& requests) {
  std::uint64_t d = 0;
  for (const WorkloadRecord& r : requests) {
    d = digest_step(d, r.task_id);
    d = digest_step(d, r.user_id);
    d = digest_step(d, r.file);
    d = digest_step(d, static_cast<std::uint64_t>(r.request_time));
  }
  return d;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct BuildPin {
  double divisor;
  std::uint64_t seed;
  std::size_t requests;
  const char* catalog;
  const char* users;
  const char* stream;
};

// Recorded from the generator as it stood before the squeezed arrival
// sampling, the radix arrival sort, the unrolled MD5 and the to_chars
// formatting: each of those must leave every bit of the build unchanged.
constexpr BuildPin kBuildPins[] = {
    {4000, 20151028, 1021, "8f0eadce790f249d", "6e7e16a9f66d5cba",
     "e54abf208062dd4f"},
    {4000, 7, 1021, "3ea6e87b6a60b1d7", "2dabacc7b2836b35",
     "0c7e321ab7ce0bc5"},
    {400, 20151028, 10211, "e322e96e89a2cf72", "b6e424d75e99d655",
     "36234bb4f4dcfd34"},
    {400, 7, 10211, "8b6511f0d5a3ae23", "7fb7a528493ba185",
     "23583f92dfd235b8"},
    {100, 20151028, 40844, "0e590b3dadbcee57", "805fc40cb530dfff",
     "ccbf04d8600b5820"},
    {100, 7, 40844, "bb9b085356e3325f", "7392493b17c49c45",
     "7d815c4d04a58e95"},
};

// Catalog, users and requests drawn in the order every world draws them.
TEST(WorkloadBuildTest, GeneratedWorkloadIsBitIdentical) {
  for (const BuildPin& pin : kBuildPins) {
    SCOPED_TRACE("divisor " + std::to_string(pin.divisor) + ", seed " +
                 std::to_string(pin.seed));
    const analysis::ExperimentConfig config =
        analysis::make_scaled_config(pin.divisor, pin.seed);
    Rng rng(config.seed);
    const Catalog catalog(config.catalog, rng);
    const UserPopulation users(config.users, rng);
    const std::vector<WorkloadRecord> requests =
        RequestGenerator(config.requests).generate(catalog, users, rng);
    EXPECT_EQ(requests.size(), pin.requests);
    EXPECT_EQ(hex(catalog_digest(catalog)), pin.catalog);
    EXPECT_EQ(hex(users_digest(users)), pin.users);
    EXPECT_EQ(hex(requests_digest(requests)), pin.stream);
  }
}

// --- The squeezed arrival decision ------------------------------------------

// Counts the (t, u) pairs where the squeeze disagrees with the definition,
// over u at and around relative_intensity(t) and over a coarse u grid.
std::size_t squeeze_mismatches(const RequestGenerator& gen,
                               const std::vector<SimTime>& times) {
  const ArrivalSqueeze squeeze(gen);
  std::size_t bad = 0;
  for (const SimTime t : times) {
    const double ri = gen.relative_intensity(t);
    const auto [lo, hi] = squeeze.bounds(t);
    std::vector<double> us = {ri,
                              std::nextafter(ri, 0.0),
                              std::nextafter(ri, 2.0),
                              ri - 1e-12,
                              ri + 1e-12,
                              ri - 1e-9,
                              ri + 1e-9,
                              lo,
                              hi,
                              std::nextafter(lo, -1.0),
                              std::nextafter(hi, 2.0),
                              0.0,
                              std::nextafter(1.0, 0.0)};
    for (int k = 0; k <= 64; ++k) us.push_back(k / 64.0);
    for (const double u : us) {
      if (squeeze.accepts(t, u) != (u <= ri)) ++bad;
    }
  }
  return bad;
}

// Bin edges, midnights, t = 0, t = duration - 1 and a spread of other
// times in [0, duration).
std::vector<SimTime> probe_times(SimTime duration) {
  std::vector<SimTime> times = {0, 1, duration - 1, duration - 2};
  for (SimTime edge = 0; edge < duration;
       edge += ArrivalSqueeze::kBinWidth * 7) {
    for (const SimTime t : {edge - 1, edge, edge + 1}) {
      if (t >= 0 && t < duration) times.push_back(t);
    }
  }
  for (SimTime midnight = kDay; midnight < duration; midnight += kDay) {
    times.insert(times.end(), {midnight - 1, midnight, midnight + 1});
  }
  Rng rng(99);
  for (int i = 0; i < 4000; ++i) {
    times.push_back(static_cast<SimTime>(rng.uniform() *
                                         static_cast<double>(duration)));
  }
  return times;
}

TEST(ArrivalSqueezeTest, DecisionEqualsTheIntensityTest) {
  struct Shape {
    double amplitude, growth, peak_hour;
    SimTime duration;
  };
  const Shape shapes[] = {
      {0.50, 0.05, 21.0, kWeek},             // the calibrated week
      {0.0, 0.05, 21.0, kWeek},              // flat days
      {1.0, 0.05, 21.0, kWeek},              // the trough touches zero
      {0.50, 0.0, 21.0, 2 * kDay},           // no growth (serve, determinism)
      {0.50, 0.05, 0.0, kWeek},              // peak at midnight
      {0.50, 0.05, 23.5, kWeek},
      {1.0, 0.3, 23.5, 5 * kDay / 2},        // not a whole number of days
      {0.35, 0.05, 7.25, kMinute},           // shorter than one bin
  };
  for (const Shape& shape : shapes) {
    RequestGenParams p;
    p.diurnal_amplitude = shape.amplitude;
    p.daily_growth = shape.growth;
    p.peak_hour = shape.peak_hour;
    p.duration = shape.duration;
    SCOPED_TRACE("amplitude " + std::to_string(shape.amplitude) +
                 ", growth " + std::to_string(shape.growth) + ", peak " +
                 std::to_string(shape.peak_hour));
    const RequestGenerator gen(p);
    EXPECT_EQ(squeeze_mismatches(gen, probe_times(p.duration)), 0u);
  }
}

TEST(ArrivalSqueezeTest, BoundsBracketTheIntensityInAThinBand) {
  RequestGenParams p;
  const RequestGenerator gen(p);
  const ArrivalSqueeze squeeze(gen);
  double widest = 0.0;
  for (const SimTime t : probe_times(p.duration)) {
    const auto [lo, hi] = squeeze.bounds(t);
    const double ri = gen.relative_intensity(t);
    EXPECT_LE(lo, ri);
    EXPECT_GE(hi, ri);
    widest = std::max(widest, hi - lo);
  }
  // A bin spans 1/2048 of the day: the band is under 0.2% of the range.
  EXPECT_LT(widest, 2e-3);
}

TEST(ArrivalSqueezeTest, LongDurationsUseTheIntensityAlone) {
  RequestGenParams p;
  p.duration = ArrivalSqueeze::kMaxCovered + 1;
  const RequestGenerator gen(p);
  const ArrivalSqueeze squeeze(gen);
  const auto [lo, hi] = squeeze.bounds(kDay / 3);
  EXPECT_TRUE(std::isinf(lo) && lo < 0.0);
  EXPECT_TRUE(std::isinf(hi) && hi > 0.0);
  EXPECT_EQ(squeeze_mismatches(gen, {0, kDay / 3, p.duration - 1}), 0u);
}

// --- The radix arrival sort --------------------------------------------------

bool arrives_before(const WorkloadRecord& a, const WorkloadRecord& b) {
  if (a.request_time != b.request_time) return a.request_time < b.request_time;
  return a.task_id < b.task_id;
}

// sort_by_arrival against a stable sort by the old comparator: the same
// order, with whole-key ties in input order (user_id records input order).
void expect_sorted_like_the_comparator(std::vector<WorkloadRecord> records) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].user_id = static_cast<UserId>(i);
  }
  std::vector<WorkloadRecord> expected = records;
  std::stable_sort(expected.begin(), expected.end(), arrives_before);
  sort_by_arrival(records);
  ASSERT_EQ(records.size(), expected.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(records[i].request_time, expected[i].request_time) << i;
    ASSERT_EQ(records[i].task_id, expected[i].task_id) << i;
    ASSERT_EQ(records[i].user_id, expected[i].user_id) << i;
  }
}

TEST(SortByArrivalTest, MatchesTheComparatorOnShuffledInputs) {
  Rng rng(5);
  const auto shuffled = [&](std::vector<WorkloadRecord> v) {
    for (std::size_t k = v.size(); k > 1; --k) {
      std::swap(v[k - 1], v[rng.uniform_index(k)]);
    }
    return v;
  };
  const auto records = [&](std::size_t n, auto time_of, auto task_of) {
    std::vector<WorkloadRecord> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i].request_time = time_of(i);
      v[i].task_id = task_of(i);
    }
    return v;
  };
  const auto draw = [&](std::uint64_t n) { return rng.uniform_index(n); };

  // A generated week's shape: ids in input order, times spread.
  expect_sorted_like_the_comparator(records(
      5000, [&](std::size_t) { return static_cast<SimTime>(draw(kWeek)); },
      [](std::size_t i) { return TaskId{i + 1}; }));
  // Duplicate times, ids shuffled.
  expect_sorted_like_the_comparator(shuffled(records(
      5000, [&](std::size_t) { return static_cast<SimTime>(draw(7)); },
      [](std::size_t i) { return TaskId{i}; })));
  // Negative times and times either side of every byte boundary.
  std::vector<SimTime> edges = {std::numeric_limits<SimTime>::min(),
                                std::numeric_limits<SimTime>::max(), 0, -1};
  for (int shift = 8; shift < 64; shift += 8) {
    const SimTime b = SimTime{1} << shift;
    edges.insert(edges.end(), {b - 1, b, b + 1, -b - 1, -b, -b + 1});
  }
  expect_sorted_like_the_comparator(shuffled(records(
      4000, [&](std::size_t i) { return edges[i % edges.size()]; },
      [&](std::size_t) { return TaskId{draw(50)}; })));
  // Large task ids, with ties on the whole key.
  expect_sorted_like_the_comparator(shuffled(records(
      4000, [&](std::size_t) { return static_cast<SimTime>(draw(3)) - 1; },
      [&](std::size_t) {
        return std::numeric_limits<TaskId>::max() - draw(5) * (TaskId{1} << 40);
      })));
  // Already sorted, sorted by id only, one record, none.
  std::vector<WorkloadRecord> sorted = records(
      300, [](std::size_t i) { return static_cast<SimTime>(i / 3); },
      [](std::size_t i) { return TaskId{i}; });
  expect_sorted_like_the_comparator(sorted);
  std::reverse(sorted.begin(), sorted.end());
  expect_sorted_like_the_comparator(sorted);
  expect_sorted_like_the_comparator(std::vector<WorkloadRecord>(1));
  expect_sorted_like_the_comparator({});
}

}  // namespace
}  // namespace odr::workload
